"""Wrapper that runs one `stiefel-mcmc` command inside a program process.

Usage: python child.py RESULT_JSON MODE [CLI ARGS...]

MODE is one of
  probe  import the package and record the environment, run nothing;
  setup  stop as soon as the Gibbs runner is entered (set-up time only);
  run    run the command through ``cli.main``;
  trace  as run, with every layer function wrapped by a span recorder.

The wrapper patches the program from outside; it edits no program file.
It writes RESULT_JSON with CLOCK_MONOTONIC stamps, so that the parent
process can subtract its own stamp taken before it started this one.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import platform
import resource
import sys
import time

import numpy as np
import scipy

RUNNERS = (("svd_model", "run_svd_gibbs"), ("eigenmodel", "run_eigenmodel_gibbs"))
LAYER_MODULES = ("cli", "csvio", "svd_model", "eigenmodel", "samplers")
LAPACK = ("qr", "eigh", "svd")
# called once per written value; wrapping it would triple the cost of
# writing a CSV while its time already counts in the csvio writers
UNTRACED = {"csvio.format_value"}
# random-stream methods counted per calling span
COUNTED_DRAWS = ("beta", "standard_normal")


class _SetupDone(BaseException):
    """Raised at the entry of the Gibbs runner in setup mode."""


class Tracer:
    """Span recorder: calls, total and self time per wrapped function."""

    def __init__(self):
        self.stats = {}
        self.stack = []
        self.draws = {}

    def wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
        return traced

    def count_draw(self, method):
        key = (self.stack[-1][0] if self.stack else "-", method)
        self.draws[key] = self.draws.get(key, 0) + 1

    def counting_generator(self, rng):
        """A Generator on the same bit generator that counts its draws."""
        tracer = self

        class CountingGenerator(np.random.Generator):
            pass

        def counted(method):
            base = getattr(np.random.Generator, method)

            def draw(self, *args, **kwargs):
                tracer.count_draw(method)
                return base(self, *args, **kwargs)
            return draw

        for method in COUNTED_DRAWS:
            setattr(CountingGenerator, method, counted(method))
        return CountingGenerator(rng.bit_generator)

    def report(self):
        return {"spans": {name: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                          for name, s in self.stats.items()},
                "draws": [[span, method, n]
                          for (span, method), n in sorted(self.draws.items())]}


def _replace_everywhere(modules, original, replacement):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install_tracer(pkg_modules, tracer):
    import stiefel_mcmc.kernels as kernels
    from stiefel_mcmc import cli, samplers

    targets = []
    for short in LAYER_MODULES:
        mod = pkg_modules[f"stiefel_mcmc.{short}"]
        for attr, fn in vars(mod).items():
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and f"{short}.{attr}" not in UNTRACED):
                targets.append((f"{short}.{attr}", fn))
    impl = inspect.getmodule(kernels.mf_vector)
    for attr in kernels.__all__:
        fn = getattr(impl, attr, None)
        if callable(fn):
            targets.append((f"kernels.{attr}", fn))
    for name, fn in targets:
        _replace_everywhere(pkg_modules.values(), fn, tracer.wrap(name, fn))
    for attr in LAPACK:
        setattr(np.linalg, attr, tracer.wrap(f"lapack.{attr}",
                                             getattr(np.linalg, attr)))
    # frame repairs: the samplers' only call into frames.orthonormalize
    samplers.orthonormalize = tracer.wrap("frames.orthonormalize",
                                          samplers.orthonormalize)
    derive = cli.derive_rng
    cli.derive_rng = lambda *a, **k: tracer.counting_generator(derive(*a, **k))


def install_runner_clock(pkg_modules, stamps, stop_at_entry):
    for short, attr in RUNNERS:
        mod = pkg_modules[f"stiefel_mcmc.{short}"]
        runner = getattr(mod, attr)

        def timed(*args, _runner=runner, **kwargs):
            stamps["enter"] = time.monotonic()
            if stop_at_entry:
                raise _SetupDone
            try:
                return _runner(*args, **kwargs)
            finally:
                stamps["exit"] = time.monotonic()
        setattr(mod, attr, timed)


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(kernels, package_file):
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "backend": kernels.BACKEND,
        "package": package_file,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main(argv):
    out_path, mode, cli_args = argv[0], argv[1], argv[2:]
    from stiefel_mcmc import cli, kernels
    import stiefel_mcmc

    result = {}
    if mode == "probe":
        result["environment"] = environment(kernels, stiefel_mcmc.__file__)
    else:
        pkg_modules = {name: mod for name, mod in sys.modules.items()
                       if name.startswith("stiefel_mcmc") and mod is not None}
        tracer = Tracer() if mode == "trace" else None
        if tracer:
            install_tracer(pkg_modules, tracer)
        stamps = {}
        install_runner_clock(pkg_modules, stamps, stop_at_entry=mode == "setup")
        try:
            result["exit_code"] = cli.main(cli_args)
        except _SetupDone:
            result["exit_code"] = 0
        result.update(stamps)
        if tracer:
            result["trace"] = tracer.report()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
