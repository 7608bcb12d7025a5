"""In-process traced run of `cvpqc run` over a list of configs.

    python bench/trace_run.py RESULT.json OUTDIR CONFIG.json [CONFIG.json ...]

Needs `src` on PYTHONPATH.  Times `import cvpqc.cli`, then calls `cli.main`
for every config in four passes, clearing the gate caches before each call
as a fresh process would start:

    traced1  workers=1, every public function wrapped; warms the process
    plain    workers=1, only cli.main and experiments.execute timed
    traced2  as traced1; its counts must equal traced1's exactly
    pool     workers=2, timed as plain

A wrapper is installed at every binding site: each `cvpqc.*` module's own
name for the function, so `from .fock import ...` copies and the package's
re-exports are covered too.  Each call records a span (name, parent, start,
end) in memory; RESULT.json gets per-name aggregates per pass, and the spans
of the second traced pass.  This script imports nothing from numpy or the
program before timing the import.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import sys
import time

MODULES = ("fock", "channel", "attack", "nongauss", "config", "experiments", "cli")
PLAIN = ("cli.main", "experiments.execute")


def _is_lru(obj) -> bool:
    return callable(obj) and hasattr(obj, "cache_info") and hasattr(obj, "__wrapped__")


def public_functions() -> dict:
    """span name -> (owner, attribute, original) for each public function and
    for TwoModeUnitary.apply.  `import cvpqc.attack` would give the re-exported
    function, so modules are taken from sys.modules."""
    found = {}
    for short in MODULES:
        mod = sys.modules[f"cvpqc.{short}"]
        for name, obj in vars(mod).items():
            if name.startswith("_"):
                continue
            target = obj.__wrapped__ if _is_lru(obj) else obj
            if inspect.isfunction(target) and target.__module__ == mod.__name__:
                found[f"{short}.{name}"] = (mod, name, obj)
    cls = sys.modules["cvpqc.fock"].TwoModeUnitary
    found["fock.TwoModeUnitary.apply"] = (cls, "apply", cls.apply)
    return found


class Tracer:
    def __init__(self):
        self.spans = []      # [name, parent index or -1, start, end, extra or None]
        self.stack = []
        self.installed = []  # (owner, attribute, original)

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        lru = fn if _is_lru(fn) else None
        d3 = name == "fock.squeeze_operator"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, 0.0, 0.0, None])
            stack.append(idx)
            misses = lru.cache_info().misses if lru else 0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][2:4] = t0, t1
            if lru:
                missed = lru.cache_info().misses > misses
                spans[idx][4] = {"miss": int(missed), "hit": int(not missed),
                                 "blocks_built": len(result.blocks) if missed else 0}
            elif d3:
                cutoff = kwargs["cutoff"] if "cutoff" in kwargs else args[1]
                spans[idx][4] = {"work_d3": cutoff.dim ** 3}
            return result
        return traced

    def install(self, functions: dict, only=None) -> None:
        originals = {id(orig): name for name, (_, _, orig) in functions.items()
                     if only is None or name in only}
        wrappers = {oid: self.wrap(name, functions[name][2])
                    for oid, name in originals.items()}
        for mod in [m for k, m in sys.modules.items()
                    if k == "cvpqc" or k.startswith("cvpqc.")]:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    self.installed.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)])
        for name, (owner, attr, orig) in functions.items():
            if isinstance(owner, type) and id(orig) in wrappers:
                self.installed.append((owner, attr, orig))
                setattr(owner, attr, wrappers[id(orig)])

    def unbound(self, functions: dict) -> list:
        """Binding sites still holding an original function (should be none)."""
        orig = {id(o): n for n, (_, _, o) in functions.items()}
        return sorted(f"{mod.__name__}.{attr} -> {orig[id(val)]}"
                      for k, mod in sys.modules.items()
                      if k == "cvpqc" or k.startswith("cvpqc.")
                      for attr, val in vars(mod).items() if id(val) in orig)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self.installed):
            setattr(owner, attr, orig)
        self.installed.clear()

    def aggregate(self) -> dict:
        """name -> {calls, total_s, self_s, and summed extra counters}."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        agg = {}
        for i, (name, _, t0, t1, extra) in enumerate(self.spans):
            a = agg.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            a["calls"] += 1
            a["total_s"] += t1 - t0
            a["self_s"] += t1 - t0 - child[i]
            for k, v in (extra or {}).items():
                a[k] = a.get(k, 0) + v
        return agg


def run_pass(caches, configs, outdir: str, tag: str, workers: int):
    cli = sys.modules["cvpqc.cli"]
    codes = []
    for i, cfg in enumerate(configs):
        for c in caches:
            c.cache_clear()
        out = f"{outdir}/{tag}-{i}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["run", cfg, "--out", out, "--workers", str(workers)])
        codes.append({"config": cfg, "out": out, "rc": rc})
    return codes


def main(argv) -> int:
    result_path, outdir, configs = argv[0], argv[1], argv[2:]
    t0 = time.perf_counter()
    import cvpqc.cli  # noqa: F401  (timed: the import floor every run pays)
    import_s = time.perf_counter() - t0

    functions = public_functions()
    caches = [orig for _, _, orig in functions.values() if _is_lru(orig)]
    result = {"import_s": import_s, "passes": {}, "unbound": []}

    def one(tag, workers, only):
        tracer = Tracer()
        tracer.install(functions, only)
        if only is None:
            result["unbound"] = tracer.unbound(functions)
        try:
            runs = run_pass(caches, configs, outdir, tag, workers)
        finally:
            tracer.uninstall()
        result["passes"][tag] = {"runs": runs, "spans": tracer.aggregate()}
        return tracer

    one("traced1", 1, None)  # also pays the first-call costs of the process
    one("plain", 1, PLAIN)
    result["span_log"] = one("traced2", 1, None).spans
    one("pool", 2, PLAIN)
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
