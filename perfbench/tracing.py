"""Spans around the calls into congcert's modules, recorded from outside.

Nothing under src/ is changed.  A module that does `from .series import
series_from_spec` looks the name up in its own globals on every call, so
replacing `congcert.prover.series_from_spec` with a timing wrapper sees every
call prover makes, and only those.  Each binding gets a span name
"<layer>.<function>"; the layer is the module that owns the function.

Spans are kept in memory as (name, start, end, parent, op, attrs) and written
out once, at the end of the run.  `op` is the index of the benchmark call
that caused the span; `parent` is the index of the enclosing span, or -1.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "decompose", "periods", "series", "prover", "search")

# (module, bound name, span name).  The benchmark's own calls into
# certify, spot_check and run_command get spans from Tracer.wrap too.
BINDINGS = (
    ("prover", "build_spec", "decompose.build_spec"),
    ("prover", "split_AB", "decompose.split_AB"),
    ("prover", "kwong_period", "periods.kwong_period"),
    ("prover", "series_from_spec", "series.expand_G"),
    ("search", "build_spec", "decompose.build_spec"),
    ("search", "split_AB", "decompose.split_AB"),
    ("search", "kwong_period", "periods.kwong_period"),
    ("search", "series_from_spec", "series.expand_G"),
    ("search", "enumerate_candidates", "search.enumerate_candidates"),
    ("decompose", "series_from_spec", "series.validate"),
    ("cli", "parse_instance_file", "cli.parse_instance_file"),
    ("cli", "build_spec", "decompose.build_spec"),
    ("cli", "certify", "prover.certify"),
    ("cli", "spot_check", "prover.spot_check"),
    ("cli", "search_certified", "search.search_certified"),
    ("cli", "enumerate_candidates", "search.enumerate_candidates"),
)

_INAPPLICABLE_ERRORS = ("SplitFailed", "CertificateFailed", "EmptyMultiset")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._op = -1
        self._restore = []

    def wrap(self, name, fn):
        clock = time.perf_counter
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            if not stack:
                self._op += 1
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self._op, None]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[2] = clock()
                stack.pop()
                if type(exc).__name__ in _INAPPLICABLE_ERRORS:
                    record[5] = {"inapplicable": True}
                raise
            record[2] = clock()
            stack.pop()
            record[5] = _attrs(name, args, kwargs, result, spans, index)
            return result

        return traced

    def install(self, congcert_modules):
        """Patch every binding in BINDINGS; `uninstall` puts them back."""
        for module_name, attr, span_name in BINDINGS:
            module = congcert_modules[module_name]
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self.wrap(span_name, original))
        # search builds a Certificate only for a candidate that holds
        search = congcert_modules["search"]
        certificate = search.Certificate
        self._restore.append((search, "Certificate", certificate))

        def counted(*args, **kwargs):
            self.counts["search.proved"] += 1
            return certificate(*args, **kwargs)

        search.Certificate = counted

    def uninstall(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, attrs in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent,
                     "op": op, "attrs": attrs}) + "\n")


def _attrs(name, args, kwargs, result, spans, index):
    if name.startswith("series."):
        return {"coeffs": kwargs.get("length", args[2] if len(args) > 2 else None)}
    if name == "search.enumerate_candidates":
        return {"count": len(result)}
    if name == "search.search_certified":
        return {"kept": len(result)}
    if name == "prover.certify":
        requested = sum(
            s[5]["coeffs"] for s in spans[index + 1:]
            if s[3] == index and s[0] == "series.expand_G"
        )
        return {"status": result.status, "coeffs": requested,
                "useful": _useful_coeffs(result, requested)}
    return None


def _useful_coeffs(cert, requested):
    """Coefficients the verdict needed: all of them for a proof, the prefix
    up to the witness for a counterexample, none for INAPPLICABLE."""
    if cert.status == "PROVED":
        return requested
    if cert.status == "COUNTEREXAMPLE":
        fam = cert.family
        return fam.delta * cert.witness[0] + max(fam.left + fam.right) + 1
    return 0


def layer_metrics(spans, counts, passes):
    """Per-pass per-layer figures derived from the spans."""
    child_time = defaultdict(float)
    for name, start, end, parent, op, attrs in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_by_layer = Counter()
    self_by_name = Counter()
    total_by_name = Counter()
    calls = Counter()
    root_time = 0.0
    coeffs = Counter()
    certify_coeffs = useful = inapplicable = candidates = kept = 0
    for index, (name, start, end, parent, op, attrs) in enumerate(spans):
        duration = end - start
        own = duration - child_time[index]
        self_by_layer[name.split(".")[0]] += own
        self_by_name[name] += own
        total_by_name[name] += duration
        calls[name] += 1
        if parent < 0:
            root_time += duration
        attrs = attrs or {}
        if name.startswith("series."):
            coeffs[name] += attrs.get("coeffs") or 0
        elif name == "prover.certify":
            certify_coeffs += attrs.get("coeffs", 0)
            useful += attrs.get("useful", 0)
        elif name == "decompose.split_AB" and attrs.get("inapplicable"):
            inapplicable += 1
        elif (name == "search.enumerate_candidates" and parent >= 0
              and spans[parent][0] == "search.search_certified"):
            candidates += attrs["count"]
        elif name == "search.search_certified":
            kept += attrs["kept"]

    def per_pass(x):
        return x / passes

    def share(seconds):
        return seconds / root_time if root_time else 0.0

    # Times are given as shares of the traced calls' wall time (trace.pass_s
    # per pass), so that a layer a workload never enters reads 0 as a share,
    # never as a time.
    metrics = {
        "trace.pass_s": (per_pass(root_time), "s"),
        "trace.spans": (per_pass(len(spans)), "count"),
        "cli.calls": (per_pass(calls["cli.run_command"]), "count"),
        "cli.parse_share": (share(total_by_name["cli.parse_instance_file"]), "frac"),
        "cli.self_share": (share(self_by_name["cli.run_command"]), "frac"),
        "decompose.split_AB_calls": (per_pass(calls["decompose.split_AB"]), "count"),
        "decompose.split_AB_self_share": (share(self_by_name["decompose.split_AB"]), "frac"),
        "decompose.validations": (per_pass(calls["series.validate"]), "count"),
        "decompose.inapplicable": (per_pass(inapplicable), "count"),
        "periods.kwong_period_calls": (per_pass(calls["periods.kwong_period"]), "count"),
        "periods.kwong_period_share": (share(total_by_name["periods.kwong_period"]), "frac"),
        "series.expand_G_calls": (per_pass(calls["series.expand_G"]), "count"),
        "series.expand_G_coeffs": (per_pass(coeffs["series.expand_G"]), "count"),
        "series.expand_G_share": (share(total_by_name["series.expand_G"]), "frac"),
        "series.validate_coeffs": (per_pass(coeffs["series.validate"]), "count"),
        "series.validate_share": (share(total_by_name["series.validate"]), "frac"),
        "prover.certify_calls": (per_pass(calls["prover.certify"]), "count"),
        "prover.certify_coeffs": (per_pass(certify_coeffs), "count"),
        "prover.useful_coeff_ratio": (useful / certify_coeffs if certify_coeffs else 0.0, "frac"),
        "prover.certify_self_share": (share(self_by_name["prover.certify"]), "frac"),
        "prover.spot_check_calls": (per_pass(calls["prover.spot_check"]), "count"),
        "prover.spot_check_self_share": (share(self_by_name["prover.spot_check"]), "frac"),
        "search.enumerate_calls": (per_pass(calls["search.enumerate_candidates"]), "count"),
        "search.enumerate_share": (share(total_by_name["search.enumerate_candidates"]), "frac"),
        "search.self_share": (share(self_by_name["search.search_certified"]), "frac"),
        "search.candidates": (per_pass(candidates), "count"),
        "search.proved": (per_pass(counts["search.proved"]), "count"),
        "search.kept": (per_pass(kept), "count"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.share"] = (share(self_by_layer[layer]), "frac")
    return metrics
