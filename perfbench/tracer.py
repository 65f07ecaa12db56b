"""Span tracer for the benchmark's traced run.

The tracer wraps the public module-level functions of roughalg's working
modules from the outside.  Each wrapper records one span per call (name,
start, end, parent) in flat in-memory arrays; ``aggregate`` turns them into
per-function and per-layer totals, and ``dump`` writes them out at the end.
A wrapper is installed in every module that binds the function, because
``search``, ``cli`` and the package ``__init__`` take them with
``from``-imports.  ``sets.Subset`` allocations are counted, not spanned.

What a rebinding cannot reach is reported by ``unreached``: references
captured at import time, such as ``functools.lru_cache`` wrappers built
around a traced function, and generator functions, whose work runs in the
consumer and lands in the consumer's self time.
"""

import functools
import inspect
import json
import time
import types
from array import array

# Layers that do measurable work, in the order they are reported.
LAYERS = ("search", "relations", "rough", "algebra", "ideals", "generalized", "cli")
# Private functions spanned as well, so that a public span's self time
# excludes the work they delegate: the hunt's per-algebra sweep runs inside
# the model search's sink.
PRIVATE_SPANS = {"search": ("_sweep_partitions",)}


def package_modules(pkg):
    """The package module and its submodules, from this import of it.

    They are read from the package's own attributes, not from sys.modules,
    which holds only the latest import when a package is imported again.
    """
    prefix = pkg.__name__ + "."
    return [pkg] + [m for _, m in sorted(vars(pkg).items())
                    if isinstance(m, types.ModuleType) and m.__name__.startswith(prefix)]


def targets(pkg):
    """(span name, original function) for every traced function."""
    out = []
    for layer in LAYERS:
        mod = getattr(pkg, layer)
        for attr, fn in sorted(vars(mod).items()):
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            if attr.startswith("_") and attr not in PRIVATE_SPANS.get(layer, ()):
                continue
            if inspect.isgeneratorfunction(fn):
                continue
            out.append((f"{layer}.{attr}", fn))
    return out


def unreached(pkg):
    """Bindings a wrapper cannot replace, with the reason."""
    notes = []
    originals = {fn: name for name, fn in targets(pkg)}
    for mod in package_modules(pkg):
        for attr, v in sorted(vars(mod).items()):
            inner = getattr(v, "__wrapped__", None)
            if inner in originals and hasattr(v, "cache_info"):
                notes.append(f"{mod.__name__}.{attr}: lru_cache wrapper captured {originals[inner]} "
                             f"at import; its calls are counted from cache_info misses, not spanned")
    for layer, names in PRIVATE_SPANS.items():
        for attr in names:
            if not inspect.isfunction(getattr(getattr(pkg, layer), attr, None)):
                notes.append(f"{layer}.{attr}: not present; its work stays in its caller's self time")
    for layer in LAYERS:
        mod = getattr(pkg, layer)
        for attr, fn in sorted(vars(mod).items()):
            if (inspect.isgeneratorfunction(fn) and fn.__module__ == mod.__name__
                    and not attr.startswith("_")):
                notes.append(f"{layer}.{attr}: generator function; its work is in the consumer's self time")
    return notes


def bindings(pkg, subset_cls):
    """Snapshot of every name the tracer may patch, for restore checks."""
    originals = {id(fn) for _, fn in targets(pkg)}
    snap = {}
    for mod in package_modules(pkg):
        for attr, v in vars(mod).items():
            if id(v) in originals:
                snap[(mod.__name__, attr)] = v
    snap[("Subset", "__init__")] = subset_cls.__dict__["__init__"]
    snap[("Subset", "_raw")] = subset_cls.__dict__["_raw"]
    return snap


def changed_bindings(pkg, subset_cls, snapshot):
    """Names whose current binding is not the snapshot's object."""
    mods = {m.__name__: m for m in package_modules(pkg)}
    bad = []
    for (owner, attr), obj in snapshot.items():
        cur = subset_cls.__dict__[attr] if owner == "Subset" else vars(mods[owner]).get(attr)
        if cur is not obj:
            bad.append(f"{owner}.{attr}")
    return bad


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.names = []
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = {"subset_allocs": 0, "is_congruence_true": 0, "models": 0, "law_results": 0}
        self._patched = []

    def __len__(self):
        return len(self.name_id)

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        ids, parents, starts, ends, stack = self.name_id, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter
        counts = self.counts
        observe = None
        if name == "relations.is_congruence":
            def observe(r):
                counts["is_congruence_true"] += r.holds
        elif name == "search.enumerate_algebras":
            def observe(r):
                counts["models"] += r
        elif name in ("rough.check_approx_laws", "rough.check_basic_laws"):
            def observe(r):
                counts["law_results"] += len(r)
        elif name == "rough.check_congruence_product_laws":
            def observe(r):
                counts["law_results"] += 2

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def install(self, pkg, subset_cls):
        mods = package_modules(pkg)
        for name, fn in targets(pkg):
            wrapper = self._wrap(name, fn)
            for mod in mods:
                for attr, v in list(vars(mod).items()):
                    if v is fn:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))
        counts = self.counts
        init = subset_cls.__dict__["__init__"]
        raw = subset_cls.__dict__["_raw"]
        raw_fn = raw.__func__

        def counted_init(self, *args, **kwargs):
            counts["subset_allocs"] += 1
            init(self, *args, **kwargs)

        def counted_raw(cls, n, mask):
            counts["subset_allocs"] += 1
            return raw_fn(cls, n, mask)

        subset_cls.__init__ = counted_init
        subset_cls._raw = classmethod(counted_raw)
        self._patched.append((subset_cls, "__init__", init))
        self._patched.append((subset_cls, "_raw", raw))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def aggregate(self):
        """Per-name calls and inclusive seconds, per-layer self seconds.

        A span's self time is its duration minus its direct children's.
        """
        n = len(self.name_id)
        start, end, parent = self.start, self.end, self.parent
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.name_id):
            d = end[i] - start[i]
            calls[nid] += 1
            total[nid] += d
            self_s[nid] += d - child[i]
        per_name = {name: {"calls": calls[k], "s": total[k], "self_s": self_s[k]}
                    for k, name in enumerate(self.names)}
        layers = {layer: 0.0 for layer in LAYERS}
        for name, agg in per_name.items():
            layers[name.split(".", 1)[0]] += agg["self_s"]
        return per_name, layers

    def dump(self, path):
        """Write the spans: a JSON header, then the four arrays in order."""
        header = {"names": self.names, "spans": len(self),
                  "arrays": ["name_id:H", "parent:i", "start:d", "end:d"]}
        with open(path.with_suffix(".json"), "w") as fh:
            json.dump(header, fh)
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)
