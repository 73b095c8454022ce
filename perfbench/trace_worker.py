"""Traced CLI worker: one request, with spans around each layer's public calls.

Usage: python perfbench/trace_worker.py SPANS_FILE REQUEST_ID -- CLI_ARGS...

The worker imports the unmodified package, wraps from outside every
public function of the layer modules (exported from ``moduli_strata`` or
the ``cli.run`` entry) and rebinds each wrapper in every ``moduli_strata``
namespace that holds the function, the defining module included, so calls
inside a layer also show as child spans.  It then runs ``cli.run(argv)``
and exits with its code.  Spans stay in memory until the worker exits;
then they are written to SPANS_FILE as JSON together with the
``cache_info()`` of every ``lru_cache`` in the package namespaces.

``moduli`` is O(1) arithmetic and is left unwrapped, so its time counts
in its callers.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

LAYERS = ("partitions", "hecke_groups", "strata", "planner", "verify")

clock = time.perf_counter
spans: list[list] = []  # [name, layer, start, end, parent index, size]
stack: list[int] = []


def _size(result: object) -> int | None:
    if isinstance(result, (list, tuple)):
        return len(result)
    cases = getattr(result, "cases", None)
    return len(cases) if isinstance(cases, list) else None


def traced(name: str, layer: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = len(spans)
        spans.append([name, layer, clock(), None, stack[-1] if stack else None, None])
        stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            stack.pop()
            spans[index][3] = clock()
        spans[index][5] = _size(result)
        return result

    return wrapper


def package_modules() -> list[types.ModuleType]:
    return [m for n, m in sorted(sys.modules.items()) if n == "moduli_strata" or n.startswith("moduli_strata.")]


def install() -> None:
    """Wrap every exported layer function in every namespace holding it."""
    import moduli_strata

    modules = package_modules()
    for export in moduli_strata.__all__:
        fn = getattr(moduli_strata, export)
        if not isinstance(fn, types.FunctionType):
            continue
        layer = fn.__module__.rsplit(".", 1)[-1]
        if layer not in LAYERS:
            continue
        wrapper = traced(f"{layer}.{fn.__name__}", layer, fn)
        for module in modules:
            for attr, value in vars(module).items():
                if value is fn:
                    setattr(module, attr, wrapper)


def cache_infos() -> dict[str, list[int]]:
    seen: dict[str, list[int]] = {}
    for module in package_modules():
        for value in vars(module).values():
            info = getattr(value, "cache_info", None)
            if callable(info) and hasattr(value, "__wrapped__"):
                key = f"{value.__module__.rsplit('.', 1)[-1]}.{value.__qualname__}"
                stats = info()
                seen[key] = [stats.hits, stats.misses, stats.currsize]
    return seen


def main(argv: list[str]) -> int:
    spans_file, request_id, sep, cli_args = argv[0], int(argv[1]), argv[2], argv[3:]
    if sep != "--":
        raise SystemExit("usage: trace_worker.py SPANS_FILE REQUEST_ID -- CLI_ARGS...")
    from moduli_strata import cli

    install()
    run = traced("cli.run", "cli", cli.run)
    try:
        code = run(cli_args)
        sys.stdout.flush()
    finally:
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump({"request": request_id, "spans": spans, "caches": cache_infos()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
