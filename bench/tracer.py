"""Per-layer tracing of tsalg, installed from outside the package.

Wrappers replace tsalg's public functions in every tsalg module namespace
that binds them (``termlang`` and ``theorems`` both import ``subst`` from
``algebra``, for example), and ``Perm``, ``Elem`` and ``Carrier`` get
counting constructors. Nothing under ``src/`` changes, and an untraced
run never imports this module.

Two kinds of record are kept, both in memory:

* Spans, only at coarse boundaries: each job, ``cli.main``, the theorem
  verifiers, check and parse calls, and carrier construction. They are
  written out when the run ends.
* Counters on the hot functions (``eval_term``, ``subst``, ``relativize``,
  ``rank``, ``compose_right``, the constructors) plus the inclusive time of
  the outermost call, so recursion is not counted twice.

A layer's self time is the time inside its outermost frames minus the
time of frames of other layers nested inside them. A frame opens only
where a call crosses from one layer into another, so a call that stays
inside its layer costs one counter update.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("seqspace", "algebra", "termlang", "theorems", "cli")

VERIFIERS = (
    "verify_relativization",
    "decompose_small",
    "sigma_holds_small",
    "verify_h_escape",
    "principal_ultraproduct",
    "build_counterexample",
)


def _random_mode(mode) -> bool:
    return mode is not None and mode.startswith("random")


#: verifier -> whether its report says it sampled (in any part)
_SAMPLED = {
    "verify_relativization": lambda r: _random_mode(r.mode),
    "decompose_small": lambda r: _random_mode(r[1].mode),
    "sigma_holds_small": lambda r: _random_mode(r.brute_mode),
    "verify_h_escape": lambda r: _random_mode(r.hom.mode) or _random_mode(r.sigma_big.brute_mode),
    "principal_ultraproduct": lambda r: "sampled" in r.mode,
    "build_counterexample": lambda r: r.verdict.trials is not None,
}


class Tracer:
    def __init__(self, tsalg):
        self.tsalg = tsalg
        self.modules = [tsalg] + [importlib.import_module(f"tsalg.{m}") for m in LAYERS]
        self.counts: dict[str, int] = defaultdict(int)
        self.times: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: list[list] = []
        self._frames: list[list] = []      # [layer, start, time of nested frames]
        self._depth: dict[str, int] = defaultdict(int)
        self._open: list[int] = []
        self._job: int | None = None
        self._mask_keys: set = set()
        self._mask_carriers: list = []     # keeps carriers alive so ids stay distinct
        self._undo: list[tuple] = []

    # --- rounds and jobs ----------------------------------------------------

    def reset(self) -> None:
        """Zero the counters; called at the start of every round."""
        for d in (self.counts, self.times, self.self_s):
            d.clear()
        self._mask_keys.clear()
        self._mask_carriers.clear()

    def begin_job(self, index: int, label: str) -> None:
        self._job = index
        self._open_span("job " + label)

    def end_job(self) -> None:
        self._close_span(perf_counter())
        self._job = None

    def _open_span(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), None, parent, self._job])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _close_span(self, end: float) -> None:
        self.spans[self._open.pop()][2] = end

    # --- wrappers -----------------------------------------------------------

    def _wrap(self, fn, layer, *, counter=None, timer=None, span=None, before=None, after=None):
        counts, times, self_s = self.counts, self.times, self.self_s
        frames, depth = self._frames, self._depth
        cheap = timer is None and span is None and after is None

        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            if before is not None:
                before(args)
            if cheap and frames and frames[-1][0] == layer:
                return fn(*args, **kwargs)
            outer = timer is not None and depth[timer] == 0
            if timer is not None:
                depth[timer] += 1
            if span is not None:
                self._open_span(span)
            frame = None if frames and frames[-1][0] == layer else [layer, 0.0, 0.0]
            start = perf_counter()
            if frame is not None:
                frame[1] = start
                frames.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if frame is not None:
                    frames.pop()
                    took = end - start
                    self_s[layer] += took - frame[2]
                    if frames:
                        frames[-1][2] += took
                if timer is not None:
                    depth[timer] -= 1
                    if outer:
                        times[timer] += end - start
                if span is not None:
                    self._close_span(end)
            if after is not None:
                after(result, outer)
            return result

        return wrapper

    def _replace(self, owner, name, wrapper) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def _install_function(self, module: str, name: str, layer: str, **opts) -> None:
        original = getattr(sys.modules[f"tsalg.{module}"], name)
        wrapper = self._wrap(original, layer, **opts)
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, attr, wrapper)

    def install(self) -> None:
        t = self.tsalg
        counts = self.counts

        for name in ("unrank", "transposition", "perm_from_images", "perm_compose",
                     "perm_inverse", "identity_perm", "unit_seq", "is_constant"):
            self._install_function("seqspace", name, "seqspace")
        self._install_function("seqspace", "rank", "seqspace", counter="rank_calls")
        self._install_function("seqspace", "compose_right", "seqspace", counter="compose_right_calls")
        self._replace(t.Perm, "__post_init__",
                      self._wrap(t.Perm.__post_init__, "seqspace", counter="perm_new"))

        def subst_args(args):
            D, f, x = args
            counts["subst_bits"] += x.bits.bit_count()
            key = (id(D), f.images)
            if key not in self._mask_keys:
                self._mask_keys.add(key)
                self._mask_carriers.append(D)

        self._install_function("algebra", "subst", "algebra", counter="subst_calls",
                               timer="subst", before=subst_args)
        self._install_function("algebra", "relativize", "algebra", counter="relativize_calls",
                               timer="relativize")
        for name in ("full_carrier", "carrier_from_seqs", "permutable_closure",
                     "permutable_subsets", "canonicalize_base"):
            self._install_function("algebra", name, "algebra", timer="carrier_build", span=name)
        self._replace(t.Carrier, "__init__",
                      self._wrap(t.Carrier.__init__, "algebra", counter="carriers_built",
                                 timer="carrier_build", span="Carrier"))
        for name in ("is_permutable", "meet", "join", "complement", "zero", "one", "is_zero",
                     "leq", "atom", "elem_from_seqs", "generate_subalgebra"):
            self._install_function("algebra", name, "algebra")
        elem_init = t.Elem.__post_init__

        def counted_elem(self_):
            counts["elem_new"] += 1
            elem_init(self_)

        self._replace(t.Elem, "__post_init__", counted_elem)

        def check_done(verdict, outer):
            if outer:
                counts["check_calls"] += 1
                counts["assignments"] += verdict.assignments_tested
                if verdict.trials is None:
                    counts["exhaustive_assignments"] += verdict.assignments_tested

        self._install_function("termlang", "eval_term", "termlang", counter="eval_nodes")
        for name in ("check_quasi", "check_equation"):
            self._install_function("termlang", name, "termlang", timer="check", span=name,
                                   after=check_done)
        for name in ("parse_term", "parse_equation", "parse_quasi"):
            self._install_function("termlang", name, "termlang", timer="parse", span=name)
        for name in ("equation_violated", "quasi_violated", "sigma", "print_term",
                     "print_equation", "print_quasi"):
            self._install_function("termlang", name, "termlang")

        for name in VERIFIERS:
            def verified(report, outer, sampled=_SAMPLED[name]):
                counts["verifier_calls"] += 1
                counts["verifier_sampled"] += sampled(report)

            self._install_function("theorems", name, "theorems", timer=name, span=name,
                                   after=verified)
        for name in ("unit_carrier", "forward_cycle", "backward_cycle"):
            self._install_function("theorems", name, "theorems")

        def exited(code, outer):
            counts["exit_nonzero"] += code != 0

        self._install_function("cli", "main", "cli", counter="main_calls", timer="main",
                               span="cli.main", after=exited)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # --- results ------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Per-layer metrics of the round since the last reset."""
        c, t, s = self.counts, self.times, self.self_s

        def ratio(a, b):
            return a / b if b else 0.0

        out = {
            "seqspace.perm_new": c["perm_new"],
            "seqspace.rank_calls": c["rank_calls"],
            "seqspace.compose_right_calls": c["compose_right_calls"],
            "seqspace.self_s": s["seqspace"],
            "algebra.carriers_built": c["carriers_built"],
            "algebra.carrier_build_s": t["carrier_build"],
            "algebra.subst_calls": c["subst_calls"],
            "algebra.subst_bits": c["subst_bits"],
            "algebra.subst_s": t["subst"],
            "algebra.mask_hit_ratio": 1 - ratio(len(self._mask_keys), c["subst_calls"]),
            "algebra.relativize_calls": c["relativize_calls"],
            "algebra.relativize_s": t["relativize"],
            "algebra.elem_new": c["elem_new"],
            "algebra.self_s": s["algebra"],
            "termlang.parse_s": t["parse"],
            "termlang.check_calls": c["check_calls"],
            "termlang.check_s": t["check"],
            "termlang.assignments": c["assignments"],
            "termlang.eval_nodes": c["eval_nodes"],
            "termlang.eval_nodes_per_assignment": ratio(c["eval_nodes"], c["assignments"]),
            "termlang.exhaustive_frac": ratio(c["exhaustive_assignments"], c["assignments"]),
            "termlang.self_s": s["termlang"],
        }
        for name in VERIFIERS:
            out[f"theorems.{name}_s"] = t[name]
        out["theorems.sampled_frac"] = ratio(c["verifier_sampled"], c["verifier_calls"])
        out["theorems.self_s"] = s["theorems"]
        out["cli.main_calls"] = c["main_calls"]
        out["cli.main_s"] = t["main"]
        out["cli.self_s"] = s["cli"]
        out["cli.exit_nonzero"] = c["exit_nonzero"]
        return out

    def write_spans(self, path) -> None:
        """One JSON object per span; times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start - origin, "end": end - origin,
                                     "parent": parent, "job": job}) + "\n")
