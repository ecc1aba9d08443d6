"""One pass of a workload in a fresh interpreter, timed from inside.

    python3 worker.py ROOT CATALOG < {"trace": [NAME, ...], "ops": [ARGV, ...]}

Imports `unitlat` from ROOT/src and parses CATALOG ("-" for none): that
is the set-up a CLI user pays on every invocation.  Then calls
`unitlat.cli.main(argv)` for each ARGV, in order, with stdout and stderr
captured; an empty list stops after set-up.  Each traced NAME,
"module.function", has every binding across unitlat.* wrapped first, so
its calls are timed from outside the program.  Prints one JSON object:
the CLOCK_MONOTONIC time at which set-up ended, per-op wall and CPU time,
exit code and output, the process's peak RSS and the trace aggregates.
"""

import contextlib
import ctypes
import io
import json
import os
import resource
import sys
import time
import traceback

class Tracer:
    """Aggregated spans per function: calls, inclusive time (outermost
    activations only), self time (span minus child spans), and counters."""

    def __init__(self):
        self.stats = {}
        self.stack = []
        self.sqrt_seen = set()

    def wrap(self, name, fn):
        rec = self.stats.setdefault(name, {"calls": 0, "incl_s": 0.0,
                                           "self_s": 0.0, "active": 0})
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if name == "units.klein_unit_structure":
                self.sqrt_seen = set()
            children = [0.0]
            self.stack.append(children)
            rec["active"] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                self.stack.pop()
                rec["active"] -= 1
                rec["calls"] += 1
                rec["self_s"] += span - children[0]
                if not rec["active"]:
                    rec["incl_s"] += span
                if self.stack:
                    self.stack[-1][0] += span
            self.count(name, rec, args, result)
            return result

        return traced

    def count(self, name, rec, args, result):
        if name == "biquadratic.sqrt_in_field":
            rec["found"] = rec.get("found", 0) + (result is not None)
            # a second call on the same element within one
            # klein_unit_structure is a retry at a higher search level
            retry = args[0] in self.sqrt_seen
            rec["escalated"] = rec.get("escalated", 0) + retry
            self.sqrt_seen.add(args[0])
        elif name == "loglattice.min_one_norm":
            rec["certified"] = rec.get("certified", 0) + bool(result[2])
        elif name == "units.search_relative_units":
            rec["hits"] = rec.get("hits", 0) + len(result)

    def install(self, package, names):
        targets = {}
        for name in names:
            layer, fname = name.split(".")
            fn = getattr(sys.modules.get(package + "." + layer), fname, None)
            if callable(fn):
                targets[id(fn)] = self.wrap(name, fn)
        for modname, module in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def result(self):
        return {name: {k: v for k, v in rec.items() if k != "active"}
                for name, rec in self.stats.items()}


def blas_threads():
    """Thread count OpenBLAS will use, asked from the loaded library."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main():
    root, catalog = sys.argv[1:3]
    request = json.load(sys.stdin)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import unitlat
    import unitlat.cli
    import unitlat.units
    if not os.path.abspath(unitlat.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit("unitlat was imported from %s, not %s" % (unitlat.__file__, src))
    if catalog != "-":
        with open(catalog) as fh:
            [unitlat.units.CyclicCatalogEntry.from_json(obj) for obj in json.load(fh)]
    tracer = Tracer() if request["trace"] else None
    if tracer:
        tracer.install("unitlat", request["trace"])
    ready = time.monotonic()

    ops = []
    for argv in request["ops"]:
        out, err = io.StringIO(), io.StringIO()
        wall, cpu = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = unitlat.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                code = 1
        ops.append({"wall_s": time.perf_counter() - wall,
                    "cpu_s": time.process_time() - cpu, "exit": code,
                    "stdout": out.getvalue(), "stderr": err.getvalue()})

    json.dump({"ready": ready, "ops": ops,
               "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               "blas_threads": blas_threads(),
               "trace": tracer.result() if tracer else None}, sys.stdout)


if __name__ == "__main__":
    main()
