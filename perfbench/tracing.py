"""Outside-in tracing of lexparse's layers for the traced benchmark run.

The tracer changes nothing inside the package.  It wraps every public
module-level function of each layer module and rebinds the wrapper in every
``lexparse`` namespace that holds the original, so a call crosses a span
whether it goes through the defining module or an importer (for example
``build_suffix_array`` is bound in ``lexparse.suffixes``, ``lexparse.parse``,
``lexparse.verify`` and ``lexparse`` itself).  ``restore`` puts every
original binding back, so untraced runs in the same process stay clean.

Spans are kept in memory as ``(round, name, start, end, parent, self_s)``
tuples; a span's self time is its duration minus the durations of its
direct children.  Generator functions (``edit_candidates``,
``all_orderings``) get one span per ``next()``, so their span time is the
time spent producing items, not the time their consumer spends on them.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import replace

LAYERS = (
    "cli",
    "fibwords",
    "alphabet",
    "textops",
    "suffixes",
    "parse",
    "sensitivity",
    "lyndon",
    "closedforms",
    "verify",
)


class Tracer:
    """Records spans and exact counts for calls into lexparse's layers."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.round = 0
        self.counts: Counter = Counter()
        self.pairs: set = set()  # distinct (text, ordering) suffix-array builds
        self._stack: list[list] = []  # [span index, children's total duration]
        self._rebound: list[tuple] = []  # (module, attribute, original)
        self._sensitivity_depth = 0

    def reset_round(self) -> None:
        """Start a new round: counts are per round, spans carry the round number."""
        self.round += 1
        self.counts = Counter()
        self.pairs = set()

    # --- installation ---------------------------------------------------------

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"lexparse.{layer}"]
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    wrapped[obj] = self._wrap(f"{layer}.{name}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "lexparse" and not modname.startswith("lexparse."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    self._rebind(mod, attr, wrapped[val])
        # run_verification reaches the group functions through the GROUPS
        # registry, not through module names, so the registry is rebound too.
        verify = sys.modules["lexparse.verify"]
        self._rebind(
            verify,
            "GROUPS",
            tuple(replace(g, func=wrapped[g.func]) for g in verify.GROUPS),
        )

    def restore(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    @staticmethod
    def leftovers() -> list[str]:
        """Names in lexparse namespaces that are still bound to a tracing wrapper."""
        left = [
            f"{modname}.{attr}"
            for modname, mod in list(sys.modules.items())
            if modname == "lexparse" or modname.startswith("lexparse.")
            for attr, val in vars(mod).items()
            if inspect.isfunction(val) and hasattr(val, "__wrapped__")
        ]
        verify = sys.modules["lexparse.verify"]
        return left + [f"GROUPS.{g.name}" for g in verify.GROUPS if hasattr(g.func, "__wrapped__")]

    def _rebind(self, mod, attr: str, value) -> None:
        self._rebound.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    # --- spans ----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        if inspect.isgeneratorfunction(fn):
            counter = name + ".items"

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = self._span(name, next, (it,), {})
                    except StopIteration:
                        return
                    self.counts[counter] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._span(name, fn, args, kwargs)
            if observe is not None:
                observe(result, *args, **kwargs)
            return result

        return wrapper

    def _span(self, name: str, fn, args, kwargs):
        spans = self.spans
        idx = len(spans)
        parent = self._stack[-1][0] if self._stack else -1
        spans.append(None)
        frame = [idx, 0.0]
        self._stack.append(frame)
        sensitivity = name.startswith("sensitivity.")
        self._sensitivity_depth += sensitivity
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._sensitivity_depth -= sensitivity
            self._stack.pop()
            duration = t1 - t0
            if self._stack:
                self._stack[-1][1] += duration
            spans[idx] = (self.round, name, t0, t1, parent, duration - frame[1])
            self.counts[name + ".calls"] += 1

    # --- counts observed at the boundaries --------------------------------------

    def _observe_suffixes_build_suffix_array(self, sa, text, ordering=None) -> None:
        self.counts["suffixes.symbols"] += sa.n
        self.pairs.add((sa.text, sa.ordering.spec))
        if self._sensitivity_depth:
            self.counts["sensitivity.resorted_symbols"] += sa.n

    def _observe_parse_lex_parse(self, parse, text, ordering=None, sa=None) -> None:
        self.counts["parse.phrases"] += parse.v

    def _observe_parse_decode(self, text, parse) -> None:
        self.counts["parse.decoded_symbols"] += len(text)

    def _observe_sensitivity_edit_sensitivity_scan(self, report, text, *args, **kwargs) -> None:
        self.counts["sensitivity.candidates"] += report.candidates
        self.counts["sensitivity.candidate_symbols"] += report.candidates * len(text)

    def _observe_sensitivity_ao_sensitivity_scan(self, report, text) -> None:
        self.counts["sensitivity.candidates"] += len(report.per_ordering)
        self.counts["sensitivity.candidate_symbols"] += len(report.per_ordering) * len(text)

    def _observe_verify_run_verification(self, results, *args, **kwargs) -> None:
        self.counts["verify.checks"] += sum(r.asserted for r in results)

    # --- per-round summary -------------------------------------------------------

    def round_metrics(self) -> dict[str, float]:
        """Per-layer numbers of the current round, as plain floats keyed by metric name."""
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span is None or span[0] != self.round:
                continue
            _, name, t0, t1, _, own = span
            self_s[name] += own
            total_s[name] += t1 - t0
        layer_self: dict[str, float] = defaultdict(float)
        for name, value in self_s.items():
            layer_self[name.split(".", 1)[0]] += value
        c = self.counts
        builds = c["suffixes.build_suffix_array.calls"]
        symbols = c["suffixes.symbols"]
        candidates = c["sensitivity.candidates"]
        scan_s = sum(
            total_s[f"sensitivity.{scan}"]
            for scan in ("edit_sensitivity_scan", "ao_sensitivity_scan")
        )
        m = {
            "suffixes.builds": builds,
            "suffixes.symbols": symbols,
            "suffixes.self_s": layer_self["suffixes"],
            "suffixes.ns_per_symbol": _ratio(layer_self["suffixes"] * 1e9, symbols),
            "suffixes.reuse_ratio": _ratio(len(self.pairs), builds),
            "parse.lex_parse_calls": c["parse.lex_parse.calls"],
            "parse.phrases": c["parse.phrases"],
            "parse.walk_self_s": self_s["parse.lex_parse"],
            "parse.decode_self_s": self_s["parse.decode"],
            "parse.decoded_symbols": c["parse.decoded_symbols"],
            "parse.serialize_self_s": self_s["parse.to_lines"] + self_s["parse.to_dict"],
            "parse.deserialize_self_s": self_s["parse.from_lines"] + self_s["parse.from_dict"],
            "parse.lz77_self_s": self_s["parse.lz77_count"],
            "sensitivity.candidates": candidates,
            "sensitivity.self_s": layer_self["sensitivity"],
            "sensitivity.us_per_candidate": _ratio(scan_s * 1e6, candidates),
            "sensitivity.resorted_fraction": _ratio(
                c["sensitivity.resorted_symbols"], c["sensitivity.candidate_symbols"]
            ),
            "textops.candidates": c["textops.edit_candidates.items"],
            "textops.self_s": layer_self["textops"],
            "alphabet.orderings": c["alphabet.all_orderings.items"],
            "cli.calls": c["cli.main.calls"],
            "cli.self_s": layer_self["cli"],
            "fibwords.self_s": layer_self["fibwords"],
            "lyndon.calls": sum(
                v for k, v in c.items() if k.startswith("lyndon.") and k.endswith(".calls")
            ),
            "lyndon.self_s": layer_self["lyndon"],
            "closedforms.self_s": layer_self["closedforms"],
            "verify.checks": c["verify.checks"],
        }
        verify = sys.modules["lexparse.verify"]
        for g in verify.GROUPS:
            m[f"verify.group_s.{g.name}"] = total_s[f"verify.{g.func.__name__}"]
        return m

    def write(self, path) -> None:
        """Write every recorded span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
