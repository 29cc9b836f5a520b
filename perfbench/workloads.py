"""The three workloads.

Each workload makes its inputs from the seed, then runs passes over them.
A pass times two kinds of call into congcert:

- verdict calls: the calls whose answers a user waits for (library certify
  on the ladder, CLI search on the sweep, CLI certify on the mix);
- spot checks: library spot_check on the verdicts just produced, the
  independent path that confirms them with no periodicity argument.

Every answer is checked as it arrives against what the workload knows
independently (hand-written verdicts, periods and bounds; the spot check;
the documented exit codes).  Checks that are not themselves timed run once,
after the timed passes, in `verify`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import statistics
import time
import traceback
from dataclasses import dataclass, field
from functools import lru_cache

import mixgen

PROVED, COUNTEREXAMPLE, INAPPLICABLE = "PROVED", "COUNTEREXAMPLE", "INAPPLICABLE"
INAPPLICABLE_REASONS = ("SplitFailed", "CertificateFailed", "EmptyMultiset")
CLI_EXIT_CODES = (0, 1, 2)

_FAMILY_RE = re.compile(r"^\{([\d,]*)\} == (?:\{([\d,]*)\}|0)$")


@dataclass
class Pass:
    """What one pass measured, keyed by input."""

    verdict_times: dict = field(default_factory=dict)  # seconds of the verdict call
    check_times: dict = field(default_factory=dict)  # seconds of its spot checks
    verdicts: int = 0
    outputs: dict = field(default_factory=dict)  # must repeat exactly every pass


def typical_pass(passes, attr, keys=None):
    """Seconds of a typical pass: over inputs, the sum of each input's median
    time across passes.  A burst of load on the machine that slows one call
    in one pass does not move it."""
    keys = getattr(passes[0], attr).keys() if keys is None else keys
    return sum(statistics.median(getattr(p, attr).get(key, 0.0) for p in passes) for key in keys)


class Workload:
    name = ""

    def __init__(self, cc, seed, workdir):
        self.cc = cc  # namespace of congcert callables; traced ones in a traced run
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failures = []
        self.wrong = []

    def timed(self, fn, *args):
        """(seconds, result); result is None when the call raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # MemoryError included
            self.failures.append(f"{getattr(fn, '__name__', fn)}{args!r}:\n{traceback.format_exc()}")
            return time.perf_counter() - start, None
        return time.perf_counter() - start, result

    def cli(self, argv):
        """(seconds, exit code, stdout, stderr) of one in-process CLI run."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            seconds, code = self.timed(self.cc.run_command, argv, out)
        if code is not None and code not in CLI_EXIT_CODES:
            self.failures.append(f"{' '.join(argv)}: undocumented exit code {code}")
            code = None
        return seconds, code, out.getvalue(), err.getvalue()

    def family(self, delta, left, right, prime, exponent):
        return self.cc.CongruenceFamily(delta, left, right, self.cc.Modulus(prime, exponent))

    def spot_check_verdict(self, p, where, target, family, status, bound, witness):
        """Time a spot check of one verdict and compare: a proof must hold to
        twice its bound; a counterexample, checked to its bound, must first
        fail at the same n with the same sums."""
        n_max = 2 * bound if status == PROVED else bound
        seconds, result = self.timed(self.cc.spot_check, target, family, n_max)
        p.check_times[where] = p.check_times.get(where, 0.0) + seconds
        if result is None:
            return
        if status == PROVED and not result.ok:
            self.wrong.append(f"{where}: PROVED but spot_check fails at {result.failure}")
        elif status == COUNTEREXAMPLE and result.failure != tuple(witness):
            self.wrong.append(f"{where}: witness {witness} but spot_check gives {result.failure}")

    def check_same_outputs(self, passes):
        first = passes[0].outputs
        for k, later in enumerate(passes[1:], start=2):
            for key, value in first.items():
                if later.outputs.get(key) != value:
                    self.wrong.append(f"{key}: pass {k} differs from pass 1")

    def prepare(self):
        pass

    def warmup(self):
        raise NotImplementedError

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def verify(self, first: Pass):
        pass

    def report(self, passes) -> list:
        """Extra lines for the run's report."""
        return []


def parse_family(text, delta, modulus_args, cc):
    m = _FAMILY_RE.match(text)
    if not m:
        raise ValueError(f"cannot read family {text!r}")
    left = tuple(int(x) for x in m.group(1).split(",") if x)
    right = tuple(int(x) for x in m.group(2).split(",") if x) if m.group(2) is not None else ()
    return cc.CongruenceFamily(delta, left, right, cc.Modulus(*modulus_args))


# ---------------------------------------------------------------------------
# oracles: brute-force counts, the independent side of every witness check

# largest index each counter is asked for; beyond it enumeration gets slow
ORACLE_LIMITS = {"plane_rowed": 14, "plane_box": 14, "overplane_rowed": 8,
                 "maxpart": 60, "multiset": 60}


def make_oracle(cc, target):
    """n -> exact count for a plain-data target, or None without a counter."""
    name, params = target
    if name not in ORACLE_LIMITS:
        return None
    counters = {
        "plane_rowed": lambda n: cc.count_plane_partitions_rowed(n, params[0]),
        "plane_box": lambda n: cc.count_plane_partitions_rowed(n, *params),
        "overplane_rowed": lambda n: cc.count_plane_overpartitions_rowed(n, params[0]),
        "maxpart": lambda n: cc.count_partitions_max_part(n, params[0]),
        "multiset": lambda n: cc.count_partitions_multiset(n, cc.PartMultiset(params)),
    }
    cached = lru_cache(maxsize=None)(counters[name])
    return lambda n: cached(n) if n <= ORACLE_LIMITS[name] else None


def oracle_witness_error(oracle, family, witness, m):
    """Compare a witness's sums with brute-force counts; None when they agree
    or the index is beyond the oracle."""
    n, left_sum, right_sum = witness
    sums = []
    for side in (family.left, family.right):
        total = 0
        for r in side:
            value = oracle(family.delta * n + r)
            if value is None:
                return None
            total += value
        sums.append(total % m)
    if tuple(sums) != (left_sum, right_sum):
        return f"witness sums {(left_sum, right_sum)} but brute force gives {tuple(sums)}"
    return None


# ---------------------------------------------------------------------------
# proof-ladder


@dataclass(frozen=True)
class Rung:
    rows: int
    prime: int
    delta: int
    families: tuple
    status: str
    period: int
    bound: int
    witness: tuple | None = None  # (n, left sum, right sum), counted by hand


# Written by hand from the literature and from small counts, never computed
# by congcert: 10-rowed plane partitions of 1 and 4 number 1 and 13.
RUNGS = (
    Rung(7, 7, 7, (((2, 3), (4, 5)),), PROVED, 2940, 420),
    Rung(8, 2, 8, (((0, 1), (3,)), ((5,), ()), ((6,), ()), ((7,), ())), PROVED, 3360, 420),
    Rung(9, 3, 9, (((1,), (8,)),), PROVED, 22680, 2520),
    Rung(10, 2, 2, (((1,), ()),), COUNTEREXAMPLE, 10080, 5040, (0, 1, 0)),
    Rung(10, 5, 5, (((4,), ()),), COUNTEREXAMPLE, 63000, 12600, (0, 3, 0)),
)


class ProofLadder(Workload):
    """Library certify, then spot_check, on each rung of a fixed ladder."""

    name = "proof-ladder"

    def prepare(self):
        cc = self.cc
        self.rungs = []
        for rung in RUNGS:
            target = cc.GFKind.plane_rowed(rung.rows)
            fams = [self.family(rung.delta, l, r, rung.prime, 1) for l, r in rung.families]
            self.rungs.append((rung, target, fams))

    def warmup(self):
        rung, target, fams = self.rungs[0]
        self.cc.certify(target, fams[0])

    def run_pass(self):
        p = Pass()
        order = list(self.rungs)
        self.rng.shuffle(order)
        for rung, target, fams in order:
            for fam in fams:
                where = self._where(rung, fam)
                seconds, cert = self.timed(self.cc.certify, target, fam)
                p.verdict_times[where] = seconds
                p.verdicts += 1
                if cert is None:
                    continue
                got = (cert.status, cert.period_used, cert.check_bound)
                if got != (rung.status, rung.period, rung.bound):
                    self.wrong.append(f"{where}: got {got}, expected "
                                      f"{(rung.status, rung.period, rung.bound)}")
                if rung.witness is not None and cert.witness != rung.witness:
                    self.wrong.append(f"{where}: witness {cert.witness}, expected {rung.witness}")
                p.outputs[where] = (got, cert.witness)
                # spot check to the hand-written bound, not the certificate's
                self.spot_check_verdict(p, where, target, fam, rung.status, rung.bound,
                                        rung.witness)
        return p

    def verify(self, first):
        for rung, target, fams in self.rungs:
            if rung.witness is None:
                continue
            oracle = make_oracle(self.cc, ("plane_rowed", (rung.rows,)))
            for fam in fams:
                error = oracle_witness_error(oracle, fam, rung.witness, rung.prime)
                if error:
                    self.wrong.append(f"plane_rowed({rung.rows}) {fam}: {error}")

    def report(self, passes):
        split = {PROVED: [], COUNTEREXAMPLE: []}
        for rung, target, fams in self.rungs:
            split[rung.status] += [self._where(rung, fam) for fam in fams]
        return [f"prove_s = {typical_pass(passes, 'verdict_times', split[PROVED]):.6g} s",
                f"refute_s = {typical_pass(passes, 'verdict_times', split[COUNTEREXAMPLE]):.6g} s"]

    @staticmethod
    def _where(rung, fam):
        return f"plane_rowed({rung.rows}) mod {rung.prime} {fam}"


# ---------------------------------------------------------------------------
# search-sweep


@dataclass(frozen=True)
class Space:
    target: str
    prime: int
    exponent: int
    delta: int
    max_terms: int
    candidates: int
    period: int
    bound: int


# Candidate counts are the number of canonical families of at most
# max_terms terms over delta residues; periods as published.
SPACES = (
    Space("plane_rowed(8)", 2, 1, 8, 6, 18324, 3360, 420),
    Space("plane_rowed(7)", 7, 1, 7, 6, 8988, 2940, 420),
    Space("overplane_rowed(4)", 2, 2, 4, 7, 1000, 96, 24),
)

SPOT_CHECKS_PER_SPACE = 3


class SearchSweep(Workload):
    """CLI `search --json --filter-redundant` over three spaces."""

    name = "search-sweep"

    def prepare(self):
        os.makedirs(self.workdir, exist_ok=True)
        self.spaces = []
        for k, space in enumerate(SPACES):
            path = os.path.join(self.workdir, f"space_{k}.cfg")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(f"prime = {space.prime}\nexponent = {space.exponent}\n"
                             f"delta = {space.delta}\ntarget = {space.target}\n"
                             f"max_terms = {space.max_terms}\n")
            rows = int(space.target.split("(")[1].rstrip(")"))
            kind = space.target.split("(")[0]
            self.spaces.append((space, path, self.cc.GFKind(kind, (rows,))))
        self.samples = {}  # space index -> families spot-checked every pass

    def warmup(self):
        self.cli(["search", "--instance", self.spaces[-1][1], "--json", "--filter-redundant"])

    def run_pass(self):
        p = Pass()
        order = list(enumerate(self.spaces))
        self.rng.shuffle(order)
        for k, (space, path, target) in order:
            seconds, code, out, err = self.cli(
                ["search", "--instance", path, "--json", "--filter-redundant"])
            p.verdict_times[space.target] = seconds
            p.verdicts += space.candidates
            p.outputs[space.target] = (code, out)
            if code is None:
                continue
            where = f"search {space.target} mod {space.prime}^{space.exponent}"
            head, _, body = out.partition("\n")
            if code != 0 or head != f"candidates: {space.candidates}":
                self.wrong.append(f"{where}: exit {code}, {head!r}, stderr {err.strip()!r}")
                continue
            docs = json.loads(body)
            for doc in docs:
                got = (doc["status"], doc["period"], doc["check_bound"])
                if got != (PROVED, space.period, space.bound):
                    self.wrong.append(f"{where} {doc['family']}: reported {got}")
            if k not in self.samples:
                picks = self.rng.sample(docs, min(SPOT_CHECKS_PER_SPACE, len(docs)))
                self.samples[k] = [
                    parse_family(doc["family"], space.delta, (space.prime, space.exponent), self.cc)
                    for doc in picks]
            for fam in self.samples[k]:
                self.spot_check_verdict(p, f"{where} {fam}", target, fam, PROVED, space.bound, None)
        return p

    def verify(self, first):
        """Each sampled family must re-certify on its own."""
        for k, fams in self.samples.items():
            space, path, target = self.spaces[k]
            for fam in fams:
                _, cert = self.timed(self.cc.certify, target, fam)
                if cert is None:
                    continue
                got = (cert.status, cert.period_used, cert.check_bound)
                if got != (PROVED, space.period, space.bound):
                    self.wrong.append(f"search {space.target} {fam}: re-certify gives {got}")

    def report(self, passes):
        cands = sum(s.candidates for s in SPACES)
        return [f"search_cands_per_s = {cands / typical_pass(passes, 'verdict_times'):.6g} 1/s"]


# ---------------------------------------------------------------------------
# instance-mix


class InstanceMix(Workload):
    """CLI `certify --json` on each file of a seeded corpus."""

    name = "instance-mix"

    def prepare(self):
        self.instances = mixgen.generate(self.seed, mixgen.DEFAULT_COUNT)
        paths = mixgen.write(self.instances, os.path.join(self.workdir, "mix"))
        self.files = []
        for inst, path in zip(self.instances, paths):
            fams = [self.family(inst.delta, l, r, inst.prime, inst.exponent)
                    for l, r in inst.families]
            self.files.append((inst, path, self._target(inst.target), fams))

    def _target(self, target):
        cc = self.cc
        name, params = target
        if name == "multiset":
            return cc.GFKind.from_multiset(cc.PartMultiset(params))
        if name == "raw":
            factors = []
            for f in params:
                if f[0] == "binomial":
                    factors.append(cc.BinomialFactor(f[1], f[2], f[3]))
                else:
                    _, sign, scale, exponent, start = f
                    factors.append(cc.TailFamily(sign=sign, start=start,
                                                 exp_offset=exponent, scale=scale))
            return cc.GFKind.from_raw(cc.ProductSpec(tuple(factors)))
        return cc.GFKind(name, params)

    def warmup(self):
        self.cli(["certify", "--instance", self.files[0][1], "--json"])

    def run_pass(self):
        p = Pass()
        order = list(self.files)
        self.rng.shuffle(order)
        for inst, path, target, fams in order:
            seconds, code, out, err = self.cli(["certify", "--instance", path, "--json"])
            p.verdict_times[inst.name] = seconds
            p.verdicts += len(fams)
            p.outputs[inst.name] = (code, out)
            if code is None:
                continue
            if not out:
                self.wrong.append(f"{inst.name}: no verdict, exit {code}: {err.strip()}")
                continue
            docs = json.loads(out)
            statuses = [d["status"] for d in docs]
            expected_code = (2 if INAPPLICABLE in statuses
                             else 1 if COUNTEREXAMPLE in statuses else 0)
            if code != expected_code or len(docs) != len(fams):
                self.wrong.append(f"{inst.name}: exit {code} for {statuses}")
                continue
            for doc, fam in zip(docs, fams):
                where = f"{inst.name} {fam}"
                if doc["family"] != str(fam):
                    self.wrong.append(f"{where}: reported as {doc['family']}")
                elif doc["status"] == INAPPLICABLE:
                    if not doc.get("reason", "").startswith(INAPPLICABLE_REASONS):
                        self.wrong.append(f"{where}: INAPPLICABLE for {doc.get('reason')!r}")
                else:
                    witness = doc["witness"]
                    witness = (witness["n"], witness["left_sum"], witness["right_sum"]) if witness else None
                    self.spot_check_verdict(p, where, target, fam, doc["status"],
                                            doc["check_bound"], witness)
        return p

    def verify(self, first):
        """Witness sums against brute-force counts where a counter exists."""
        for inst, path, target, fams in self.files:
            code, out = first.outputs[inst.name]
            if not out:
                continue
            oracle = make_oracle(self.cc, inst.target)
            if oracle is None:
                continue
            m = inst.prime ** inst.exponent
            for doc, fam in zip(json.loads(out), fams):
                if doc["status"] != COUNTEREXAMPLE:
                    continue
                w = doc["witness"]
                error = oracle_witness_error(oracle, fam, (w["n"], w["left_sum"], w["right_sum"]), m)
                if error:
                    self.wrong.append(f"{inst.name} {fam}: {error}")

    def report(self, passes):
        counts = {PROVED: 0, COUNTEREXAMPLE: 0, INAPPLICABLE: 0, "error": 0}
        for code, out in passes[0].outputs.values():
            if not out:
                counts["error"] += 1
                continue
            for doc in json.loads(out):
                counts[doc["status"]] += 1
        files_per_s = len(self.files) / typical_pass(passes, "verdict_times")
        return [f"certify_files_per_s = {files_per_s:.6g} 1/s",
                "outcomes: " + ", ".join(f"{k} {v}" for k, v in counts.items())]


WORKLOADS = {w.name: w for w in (ProofLadder, SearchSweep, InstanceMix)}
