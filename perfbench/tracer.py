"""Per-layer tracing for the benchmark, built from outside the library.

The tracer replaces public kekulec functions and methods with wrappers that
count calls and measure self time (a span's duration minus the time its
child spans cover).  A function imported by name into several modules is
patched in every one of them, so ``kekulec.omni.has_kekule_state_for`` and
``kekulec.kekule.has_kekule_state_for`` both report to the same key.
Spans are aggregated in memory; nothing is written while ops run.

Helpers called once per state or per edge mask (``port_assignment``,
``is_kekule_state``, ``is_curve``, ``is_alternating``, the ``EdgeSubset``
operators, ``cells.channel``) stay unwrapped: their time lands in the
caller's self time, so ``kekule.kekule_cell`` self time is the projection
cost and ``kekule.enumerate_kekule_states`` self time is the backtracker.
``gf2.span`` is a generator, so its iteration time lands in its caller too.
"""

from __future__ import annotations

import importlib
import sys
import time

# (module, function names) patched wherever the function object is bound
FUNCTIONS = {
    "graph": ["parse_document", "parse_graph", "cycle_basis", "curve_components",
              "cycle_rank", "signature", "connected_components", "is_connected",
              "to_document", "dumps_document"],
    "kekule": ["enumerate_kekule_states", "kekule_cell", "has_kekule_state_for",
               "kekule_states_for", "alternating_path", "alternating_curves",
               "state_difference"],
    "omni": ["is_omniconjugated", "realized_assignment_count",
             "pendant_core_is_complete", "make_A", "make_B", "make_delta"],
    "semikekule": ["solve_semi_kekule", "hsk_basis", "enumerate_semi_kekule",
                   "kekule_states_via_span"],
    "gf2": ["solve_affine", "rank", "independent"],
    "cells": ["parity_space", "diameter", "translate", "is_open", "flexible_ports",
              "is_flexible", "flex", "channel_decomposition"],
    "classify": ["classify_cell", "diameter4_template", "star_graph"],
    "transform": ["merge_node", "split_node", "subdivide_port_edge", "translate_graph",
                  "flexible_subgraph", "attach_handles", "add_internal_edge",
                  "glue_ports"],
    "smallgraphs": ["atlas_graphs", "connected_with_ports", "random_connected_graph",
                    "random_bounded_graph"],
    "verify": ["run_claims"],
    "switch": ["verify_gate"],
    "cli": ["main", "build_parser"],
}

# (module, class, method names) patched on the class itself
METHODS = [
    ("graph", "Graph", ["__init__"]),
    ("cells", "Cell", ["members", "assignment"]),
    ("transform", "RewriteReport", ["diff"]),
    ("switch", "FunctionalCell", ["__init__", "signal", "signal_socket",
                                  "open_channels", "reachable_states", "reset"]),
]

# per-layer counters the benchmark reports next to calls and self time
COUNTERS = ("kekule.enumerate_kekule_states.states", "kekule.kekule_cell.members",
            "kekule.has_kekule_state_for.hits", "omni.probes", "gf2.solve_affine.rows")


class Tracer:
    """Installs wrappers for one traced pass and accumulates their stats."""

    def __init__(self):
        for layer in FUNCTIONS:
            importlib.import_module(f"kekulec.{layer}")
        self.stats: dict[str, list] = {}      # key -> [calls, self_s, total_s]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[float] = []         # child time of each open span
        self._omni_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def reset(self) -> None:
        for s in self.stats.values():
            s[0], s[1], s[2] = 0, 0.0, 0.0
        self.counters = dict.fromkeys(COUNTERS, 0)

    def open_root(self) -> None:
        """Start the benchmark-side span around one op."""
        self._stack.append(0.0)

    def close_root(self, duration: float) -> None:
        child = self._stack.pop()
        s = self.stats.setdefault("op", [0, 0.0, 0.0])
        s[0] += 1
        s[1] += duration - child
        s[2] += duration

    def _wrap(self, key: str, fn):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        after = self._after_hook(key)
        is_omni = key.startswith("omni.")
        tracer = self

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            if is_omni:
                tracer._omni_depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dur - child
                stats[2] += dur
                if stack:
                    stack[-1] += dur
                if is_omni:
                    tracer._omni_depth -= 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_hook(self, key: str):
        c = self.counters
        if key == "kekule.enumerate_kekule_states":
            def hook(args, result):
                c["kekule.enumerate_kekule_states.states"] += len(result)
        elif key == "kekule.kekule_cell":
            def hook(args, result):
                c["kekule.kekule_cell.members"] += len(result)
        elif key == "kekule.has_kekule_state_for":
            def hook(args, result):
                c["kekule.has_kekule_state_for.hits"] += bool(result)
                if self._omni_depth:
                    c["omni.probes"] += 1
        elif key == "gf2.solve_affine":
            def hook(args, result):
                c["gf2.solve_affine.rows"] += len(args[0])
        else:
            return None
        return hook

    # -- patching ------------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "kekulec" or name.startswith("kekulec."))]

    def install(self) -> None:
        """Wrap every traced name in every kekulec module that binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for layer, names in FUNCTIONS.items():
            home = sys.modules[f"kekulec.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapped = self._wrap(f"{layer}.{name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, attr, wrapped)
        for layer, cls_name, names in METHODS:
            cls = getattr(sys.modules[f"kekulec.{layer}"], cls_name)
            for name in names:
                raw = cls.__dict__[name]
                key = f"{layer}.{cls_name}" if name == "__init__" else f"{layer}.{name}"
                if isinstance(raw, staticmethod):
                    self._patch(cls, name, staticmethod(self._wrap(key, raw.__func__)))
                else:
                    self._patch(cls, name, self._wrap(key, raw))
        # run_claims looks claims up in the CLAIMS list, not by module attribute
        verify = sys.modules["kekulec.verify"]
        claims = verify.CLAIMS
        original_list = list(claims)
        claims[:] = [(name, self._wrap(f"verify.{name}", fn)) for name, fn in claims]
        self._patches.append((claims, "__list__", original_list))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if attr == "__list__":
                owner[:] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        if self._stack:
            raise RuntimeError("unbalanced spans at uninstall")

    # -- reporting ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Calls, self time and counters of the pass, keyed by dotted name."""
        out: dict[str, float] = {}
        layers: dict[str, float] = {}
        layer_calls: dict[str, int] = {}
        for key, (calls, self_s, total_s) in self.stats.items():
            out[f"{key}.calls"] = calls
            out[f"{key}.self_s"] = self_s
            if key.startswith("verify.") and key != "verify.run_claims":
                out[f"{key}.wall_s"] = total_s
            layer = key.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + self_s
            layer_calls[layer] = layer_calls.get(layer, 0) + calls
        for layer, self_s in layers.items():
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.calls"] = layer_calls[layer]
        out.update(self.counters)
        probes = out.get("kekule.has_kekule_state_for.calls", 0)
        out["kekule.has_kekule_state_for.hit_ratio"] = (
            self.counters["kekule.has_kekule_state_for.hits"] / probes if probes else 0.0)
        return out
