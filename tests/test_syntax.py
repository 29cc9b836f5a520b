"""One syntax per value: each value of the instance language prints what
its own `parse` reads (targets, products, multisets, families), and each
derivation step prints both of its sides as products in that syntax."""

import json
import os
import random

import pytest

from congcert import (
    CongruenceFamily,
    GFKind,
    Modulus,
    ParseError,
    PartMultiset,
    ProductSpec,
    SearchSpace,
    SplitFailed,
    TailFamily,
    build_spec,
    enumerate_candidates,
    split_AB,
)
from congcert.cli import parse_instance_file
from congcert.decompose import _Workspace
from test_cli import _verdict_runs, run
from test_decompose import _split_grid
from test_series import random_spec


INSTANCE_DIR = os.path.join(os.path.dirname(__file__), "..", "instances")


def _committed():
    for name in sorted(os.listdir(INSTANCE_DIR)):
        with open(os.path.join(INSTANCE_DIR, name), encoding="utf-8") as handle:
            yield parse_instance_file(handle.read())


def _grid_targets():
    return list(dict.fromkeys(target for target, _, _ in _split_grid()))


def _constant_exponent(spec):
    return all(getattr(f, "exp_scale", 0) == 0 for f in spec.factors)


class TestRoundTrip:
    """`X.parse(str(x)) == x` for each value class."""

    def test_targets(self):
        targets = [inst.target for inst in _committed()] + _grid_targets()
        for target in targets:
            assert GFKind.parse(str(target)) == target, str(target)

    def test_products(self):
        rng = random.Random(2024)
        specs = [build_spec(t) for t in [inst.target for inst in _committed()] + _grid_targets()]
        specs += [random_spec(rng) for _ in range(300)]
        checked = 0
        for spec in specs:
            if spec.factors and _constant_exponent(spec):
                assert ProductSpec.parse(str(spec)) == spec, str(spec)
                checked += 1
        assert checked > 250

    def test_tails_written_with_any_offset(self):
        # a tail is kept with its offset in [0, scale), so it prints an
        # offset `parse` reads (never `n+-2`) and reads back as itself
        for scale in (1, 2, 3, 5):
            for offset in range(-3 * scale, 3 * scale + 1):
                for sign, exponent in ((-1, -2), (1, 3)):
                    tail = TailFamily(sign=sign, start=4, exp_offset=exponent, scale=scale, offset=offset)
                    assert ProductSpec.parse(str(tail)) == ProductSpec((tail,)), str(tail)

    def test_multisets(self):
        rng = random.Random(7)
        multisets = [PartMultiset(tuple((rng.randint(1, 40), rng.randint(1, 12))
                                        for _ in range(rng.randint(1, 6)))) for _ in range(100)]
        for target, modulus, delta in _split_grid():
            try:
                multisets.append(split_AB(build_spec(target), modulus, delta).a_multiset)
            except SplitFailed:
                pass
        for multiset in multisets:
            assert PartMultiset.parse(str(multiset)) == multiset, str(multiset)

    def test_families(self):
        families = [f for inst in _committed() for f in inst.families]
        families += enumerate_candidates(SearchSpace(GFKind.plane_rowed(4), Modulus(2, 2), 4, 4))
        for family in families:
            assert CongruenceFamily.parse(str(family), family.delta, family.modulus) == family

    def test_varying_exponent_tail_is_printed_but_not_read(self):
        # only `plane` builds one, and the split refuses it on load
        (tail,) = build_spec(GFKind.plane()).factors
        assert str(tail) == "tail((1-q^n)^-n, from=1)"
        with pytest.raises(ParseError):
            ProductSpec.parse(str(tail))


# instances whose targets printed in a second syntax before each value
# printed what its parse reads
PRINTED_TARGETS = [
    "raw: (1-q^1)^-1 (1-q^3)^-3 tail((1-q^4n)^-1, from=4)",
    "multiset(1,2:2,4)",
]


@pytest.mark.parametrize("target", PRINTED_TARGETS, ids=["raw-tail", "multiset"])
def test_printed_target_parses_back(target, tmp_path):
    text = f"prime = 2\nexponent = 1\ndelta = 4\ntarget = {target}\nfamily = {{3}} == 0\n"
    path = tmp_path / "instance.cfg"
    path.write_text(text)
    code, out = run(["certify", "--instance", str(path)])
    assert code in (0, 1), out
    printed = out.split("[target ", 1)[1].split(", mod ", 1)[0]
    reread = parse_instance_file(text.replace(target, printed))
    assert reread.target == parse_instance_file(text).target


@pytest.fixture
def steps(monkeypatch):
    """Every derivation step recorded while a test runs, with the factors
    of its two sides as the split passed them."""
    recorded = []
    apply_rule = _Workspace.apply_rule

    def recording(self, rule, before, after):
        apply_rule(self, rule, before, after)
        recorded.append((self.derivation[-1], tuple(before), tuple(after)))

    monkeypatch.setattr(_Workspace, "apply_rule", recording)
    return recorded


def _parsed_sides(step):
    """A step `rule: before -> after` as (rule, before's factors, after's)."""
    rule, sides = step.split(": ", 1)
    before, after = sides.split(" -> ")
    return rule, ProductSpec.parse(before).factors, ProductSpec.parse(after).factors


class TestDerivationSteps:
    def test_split_grid_steps_parse_to_their_factors(self, steps):
        for target, modulus, delta in _split_grid():
            try:
                split_AB(build_spec(target), modulus, delta)
            except SplitFailed:
                pass
        assert {_parsed_sides(step)[0] for step, _, _ in steps} == {
            "peel", "plus-to-minus", "power-reduce",
        }
        for step, before, after in steps:
            assert _parsed_sides(step)[1:] == (before, after), step

    def test_certificate_steps_parse_to_their_factors(self, steps, tmp_path):
        printed = set()
        for argv, _, out, _ in _verdict_runs(tmp_path):
            if "--json" in argv and "[" in out:
                docs = json.loads(out[out.index("["):])
                printed.update(step for doc in docs for step in doc["derivation"])
        recorded = {step: (before, after) for step, before, after in steps}
        assert printed and printed <= recorded.keys()
        for step in printed:
            assert _parsed_sides(step)[1:] == recorded[step], step
