"""In-process span tracer for the modulirc layers.

The tracer wraps, from outside the package, every public function of each
layer module plus the named private hot spots, and patches each wrapped name
in every `modulirc` module namespace that holds it (for example `cli` binds
`classify` by name).  Nothing under `src/` changes.  Spans are kept in
memory as compact columns and written out when the run ends.

A span's self time is its duration minus the durations of its child spans.
"""

import array
import gzip
import inspect
import sys
import time

LAYERS = ("cli", "params", "families", "classifier", "segre", "oracle", "rng")
# private functions traced as well, because the work concentrates there
HOT_SPOTS = {"classifier": ("_deg_vectors", "_twist_vectors"),
             "oracle": ("_degree_grid",)}
# classes whose constructions or method calls are counted, not timed
COUNTED = (("classifier", "ComponentDescriptor", "__post_init__", "classifier.descriptors"),
           ("families", "ExtensionChain", "__post_init__", "families.ExtensionChain.calls"),
           ("rng", "SplitMix64", "next_u64", "rng.next_u64.calls"))


def _suite_trials(name):
    def count(result):
        first = result[0] if isinstance(result, tuple) else result
        return {name + ".trials": first.trials}
    return count


# work counts read off a traced function's return value
_RESULT_COUNTS = {
    "classifier._deg_vectors": lambda r: {"classifier._deg_vectors.vectors": len(r)},
    "classifier._twist_vectors": lambda r: {"classifier._twist_vectors.vectors": len(r),
                                            "classifier.chain_yield_hits": int(bool(r))},
    "oracle._degree_grid": lambda r: {"oracle._degree_grid.rows": len(r)},
}


class Tracer:
    """Collects spans and counts while installed; `install`/`uninstall`
    patch and restore the package in place."""

    def __init__(self, modules):
        self._modules = modules          # {layer: module}
        self.names = []                  # span name table
        self._name_id = {}
        self.call = array.array("l")     # CLI call id of each span
        self.parent = array.array("l")   # index of the parent span, -1 at top
        self.name = array.array("l")
        self.start = array.array("q")    # perf_counter_ns
        self.end = array.array("q")
        self.calls = {}
        self.self_ns = {}
        self.total_ns = {}
        self.counts = {}
        self.call_id = -1
        self._stack = []                 # (span index, child ns so far)
        self._saved = []

    def _span_name(self, name):
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
            for table in (self.calls, self.self_ns, self.total_ns):
                table[name] = 0
        return self._name_id[name]

    def _wrap(self, qualname, fn):
        name_id = self._span_name(qualname)
        counter = _RESULT_COUNTS.get(qualname)
        if qualname.startswith("oracle.verify_"):
            counter = _suite_trials(qualname)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.call.append(self.call_id)
            self.parent.append(stack[-1][0] if stack else -1)
            self.name.append(name_id)
            self.end.append(0)
            frame = [idx, 0]
            stack.append(frame)
            t0 = clock()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.end[idx] = t1
                stack.pop()
                dur = t1 - t0
                self.calls[qualname] += 1
                self.total_ns[qualname] += dur
                self.self_ns[qualname] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if counter is not None:
                for key, n in counter(result).items():
                    self.counts[key] = self.counts.get(key, 0) + n
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, key, fn):
        self.counts.setdefault(key, 0)

        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        wrappers = {}
        for layer, mod in self._modules.items():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in HOT_SPOTS.get(layer, ()):
                    continue
                wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        # patch every binding of a wrapped function, in every package module
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("modulirc"):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        for layer, cls_name, method, key in COUNTED:
            cls = getattr(self._modules.get(layer), cls_name, None)
            if cls is None or method not in vars(cls):
                continue
            orig = vars(cls)[method]
            self._saved.append((cls, method, orig))
            setattr(cls, method, self._counter(key, orig))

    def uninstall(self):
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    def write_spans(self, path):
        """Spans as gzipped tab-separated rows: call, span, parent, name,
        start_ns, end_ns."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("call\tspan\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{self.call[i]}\t{i}\t{self.parent[i]}\t{names[self.name[i]]}"
                         f"\t{self.start[i]}\t{self.end[i]}\n")


def count_nested_calls(owner, code_name, thunk):
    """Run thunk() and count the calls of the function named `code_name`
    nested in `owner`, with a trace hook active only meanwhile.  Returns
    None, without running thunk, when `owner` defines no such function."""
    targets = {c for c in owner.__code__.co_consts
               if inspect.iscode(c) and c.co_name == code_name}
    if not targets:
        return None
    n = 0

    def hook(frame, event, arg):
        nonlocal n
        if frame.f_code in targets:
            n += 1

    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        thunk()
    finally:
        sys.settrace(previous)
    return n
