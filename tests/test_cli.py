import io
import json

import pytest

from congcert import BinomialFactor, ParseError, SemanticError, TailFamily
from congcert.cli import (
    certificate_doc,
    parse_instance_file,
    render_instance,
    run_command,
)

THREE_ROWED = """\
# three-rowed congruences
prime = 3
exponent = 1
delta = 3
target = plane_rowed(3)
family = {2} == 0
family = {0} == {1}
"""

BOUNDED_PARTS = """\
prime = 5
exponent = 1
delta = 10
target = maxpart(4)
family = {6,7,8} == 0
family = {2,3,4} == 0
"""

TWO_ROWED_SEARCH = """\
prime = 2
exponent = 1
delta = 2
target = plane_rowed(2)
max_terms = 2
"""

OVERPLANE = """\
prime = 2
exponent = 2
delta = 4
target = overplane_rowed(4)
family = {1,2,3} == 0
"""


def run(argv):
    buf = io.StringIO()
    code = run_command(argv, out=buf)
    return code, buf.getvalue()


@pytest.fixture
def instance_path(tmp_path):
    def write(text, name="instance.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestParsing:
    def test_round_trip(self):
        inst = parse_instance_file(THREE_ROWED)
        assert parse_instance_file(render_instance(inst)) == inst

    def test_round_trip_with_options(self):
        text = TWO_ROWED_SEARCH + "allow_zero_right = false\nn_max = 50\n"
        inst = parse_instance_file(text)
        assert parse_instance_file(render_instance(inst)) == inst
        assert inst.max_terms == 2 and inst.n_max == 50 and not inst.allow_zero_right

    def test_round_trip_multiset_target(self):
        text = "prime = 3\nexponent = 1\ndelta = 4\ntarget = multiset(1,3:2,4:3)\n"
        inst = parse_instance_file(text)
        assert parse_instance_file(render_instance(inst)) == inst

    def test_round_trip_raw_target_with_tail(self):
        text = (
            "prime = 2\nexponent = 1\ndelta = 4\n"
            "target = raw: (1-q^1)^-1 (1+q^2)^3 tail((1-q^4n)^-1, from=4)\n"
            "family = {3} == 0\n"
        )
        inst = parse_instance_file(text)
        assert parse_instance_file(render_instance(inst)) == inst

    def test_parses_families(self):
        inst = parse_instance_file(THREE_ROWED)
        assert [str(f) for f in inst.families] == ["{2} == 0", "{0} == {1}"]
        assert inst.delta == 3 and inst.modulus.value == 3

    def test_parses_overplane_instance(self):
        inst = parse_instance_file(OVERPLANE)
        assert str(inst.target) == "overplane_rowed(4)"
        assert str(inst.families[0]) == "{1,2,3} == 0"
        assert inst.modulus.value == 4

    def test_raw_target_with_tail(self):
        text = (
            "prime = 2\nexponent = 1\ndelta = 4\n"
            "target = raw: (1-q^1)^-1 (1-q^3)^-3 tail((1-q^4n)^-1, from=4)\n"
        )
        inst = parse_instance_file(text)
        assert inst.target.spec.factors == (
            BinomialFactor(-1, 1, -1),
            BinomialFactor(-1, 3, -3),
            TailFamily(sign=-1, start=4, exp_offset=-1, scale=4),
        )

    def test_residue_beyond_delta_rejected(self):
        with pytest.raises(SemanticError):
            parse_instance_file(THREE_ROWED.replace("{2} == 0", "{5} == {2}"))

    def test_composite_prime_rejected(self):
        with pytest.raises(SemanticError):
            parse_instance_file(THREE_ROWED.replace("prime = 3", "prime = 6"))

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            parse_instance_file(THREE_ROWED + "wibble = 3\n")

    def test_bad_builder_arity_rejected(self):
        with pytest.raises(SemanticError):
            parse_instance_file(THREE_ROWED.replace("plane_rowed(3)", "plane_rowed(3,4)"))

    def test_missing_required_key(self):
        with pytest.raises(ParseError):
            parse_instance_file("prime = 3\nexponent = 1\ndelta = 3\n")

    def test_comments_and_blanks_ignored(self):
        spaced = "\n# comment\n\n" + THREE_ROWED.replace("prime = 3", "prime = 3  # inline")
        assert parse_instance_file(spaced) == parse_instance_file(THREE_ROWED)


class TestPeriodCommand:
    def test_worked_example(self):
        code, out = run(["period", "--multiset", "1,3:2,4:3", "--prime", "3", "--power", "1"])
        assert code == 0
        assert out.splitlines()[0] == "108"

    def test_empirical_confirmation(self):
        code, out = run(
            ["period", "--multiset", "1,3:2,4:3", "--prime", "3", "--power", "1", "--empirical"]
        )
        assert code == 0
        assert "empirical minimal period: 108" in out


class TestCertifyCommand:
    def test_proved_instance_exits_zero(self, instance_path):
        code, out = run(["certify", "--instance", instance_path(THREE_ROWED)])
        assert code == 0
        assert out.count("status PROVED") == 2
        assert "period 6" in out and "check bound 2" in out

    def test_counterexample_exits_one(self, instance_path):
        text = THREE_ROWED.replace("family = {2} == 0", "family = {1} == 0")
        code, out = run(["certify", "--instance", instance_path(text)])
        assert code == 1
        assert "COUNTEREXAMPLE" in out

    def test_inapplicable_exits_two(self, instance_path):
        text = "prime = 2\nexponent = 1\ndelta = 2\ntarget = plane\nfamily = {0} == {1}\n"
        code, out = run(["certify", "--instance", instance_path(text)])
        assert code == 2
        assert "INAPPLICABLE" in out

    def test_json_document_fields(self, instance_path):
        code, out = run(["certify", "--instance", instance_path(OVERPLANE), "--json"])
        assert code == 0
        docs = json.loads(out)
        assert len(docs) == 1
        doc = docs[0]
        assert doc["status"] == "PROVED"
        assert (doc["prime"], doc["exponent"], doc["delta"]) == (2, 2, 4)
        assert doc["family"] == "{1,2,3} == 0"
        assert (doc["period"], doc["check_bound"]) == (96, 24)
        assert doc["witness"] is None
        assert isinstance(doc["derivation"], list) and doc["derivation"]

    def test_witness_document(self, instance_path):
        text = "prime = 2\nexponent = 1\ndelta = 2\ntarget = plane_rowed(2)\nfamily = {0} == 0\n"
        code, out = run(["certify", "--instance", instance_path(text), "--json"])
        assert code == 1
        doc = json.loads(out)[0]
        assert doc["witness"] == {"n": 0, "left_sum": 1, "right_sum": 0}

    def test_missing_file_exits_two(self):
        code, _ = run(["certify", "--instance", "/nonexistent/path.cfg"])
        assert code == 2


class TestSpotCheckCommand:
    def test_ok_run(self, instance_path):
        code, out = run(
            ["spot-check", "--instance", instance_path(THREE_ROWED), "--n-max", "300"]
        )
        assert code == 0
        assert out.count("ok for all n <= 300") == 2

    def test_failing_run(self, instance_path):
        text = THREE_ROWED.replace("family = {2} == 0", "family = {0} == 0")
        code, out = run(["spot-check", "--instance", instance_path(text), "--n-max", "50"])
        assert code == 1
        assert "FAILS at n=0" in out


class TestSearchCommand:
    def test_two_rowed_search(self, instance_path):
        code, out = run(["search", "--instance", instance_path(TWO_ROWED_SEARCH)])
        assert code == 0
        assert "candidates: 3" in out
        assert "proved: 1" in out
        assert "{0} == {1}" in out

    def test_json_output(self, instance_path):
        code, out = run(["search", "--instance", instance_path(TWO_ROWED_SEARCH), "--json"])
        assert code == 0
        body = out[out.index("["):]
        docs = json.loads(body)
        assert [d["family"] for d in docs] == ["{0} == {1}"]

    def test_inapplicable_search_exits_two(self, instance_path):
        text = "prime = 2\nexponent = 1\ndelta = 2\ntarget = plane\nmax_terms = 2\n"
        code, _ = run(["search", "--instance", instance_path(text)])
        assert code == 2


class TestOracleCommand:
    @pytest.mark.parametrize(
        "argv,want",
        [
            (["oracle", "--counter", "partitions", "--n", "5"], "7"),
            (["oracle", "--counter", "overpartitions", "--n", "4"], "14"),
            (["oracle", "--counter", "plane_rowed", "--n", "3", "--r", "3"], "6"),
            (["oracle", "--counter", "overplane_rowed", "--n", "3", "--k", "3"], "16"),
            (["oracle", "--counter", "maxpart", "--n", "6", "--m", "4"], "9"),
            (["oracle", "--counter", "multiset", "--n", "2", "--multiset", "1:2,2:3,3"], "6"),
        ],
    )
    def test_counts(self, argv, want):
        code, out = run(argv)
        assert code == 0 and out.strip() == want


class TestExpandCommand:
    def test_explicit_target(self):
        code, out = run(
            ["expand", "--target", "plane_rowed(4)", "--prime", "2", "--length", "13"]
        )
        assert code == 0
        assert out.strip() == "1,1,1,0,1,1,1,0,1,1,1,0,0"


TABLE_FIRST = [[4, 1, 0], [4, 2, 4], [1, 0, 4], [3, 1, 1], [0, 2, 3], [0, 0, 0]]
TABLE_SECOND = [[2, 3, 0], [4, 4, 2], [1, 0, 4], [1, 3, 1], [0, 4, 1], [0, 0, 0]]


class TestTableCommand:
    def test_reproduces_residue_grids(self, instance_path):
        code, out = run(["table", "--instance", instance_path(BOUNDED_PARTS), "--rows", "6"])
        assert code == 0
        grids = []
        current = None
        for line in out.splitlines():
            if line.startswith("family"):
                current = []
                grids.append(current)
            elif current is not None and line.strip() and not line.strip().startswith("n "):
                cells = [int(tok) for tok in line.split()]
                current.append(cells[1:])  # drop the n column
        assert grids == [TABLE_FIRST, TABLE_SECOND]


class TestCommittedInstances:
    INSTANCE_DIR = __import__("os").path.join(
        __import__("os").path.dirname(__file__), "..", "instances"
    )

    def test_all_parse_and_render_round_trip(self):
        import os

        names = sorted(os.listdir(self.INSTANCE_DIR))
        assert len(names) >= 6
        for name in names:
            with open(os.path.join(self.INSTANCE_DIR, name)) as handle:
                inst = parse_instance_file(handle.read())
            assert parse_instance_file(render_instance(inst)) == inst, name

    @pytest.mark.parametrize(
        "name",
        [
            "four_rowed_mod2.cfg",
            "eight_rowed_mod2.cfg",
            "nine_rowed_mod3.cfg",
            "overplane_four_mod4.cfg",
            "bounded_parts_mod5.cfg",
        ],
    )
    def test_committed_instances_certify(self, name):
        import os

        code, out = run(["certify", "--instance", os.path.join(self.INSTANCE_DIR, name)])
        assert code == 0, out
        assert "COUNTEREXAMPLE" not in out

    def test_committed_search_instance(self):
        import os

        path = os.path.join(self.INSTANCE_DIR, "two_rowed_search.cfg")
        code, out = run(["search", "--instance", path])
        assert code == 0
        assert "candidates: 3" in out and "{0} == {1}" in out


class TestUsage:
    def test_unknown_subcommand_exits_two(self):
        code, _ = run(["frobnicate"])
        assert code == 2

    def test_expand_from_instance(self, instance_path):
        code, out = run(
            ["expand", "--instance", instance_path(THREE_ROWED), "--length", "6"]
        )
        assert code == 0
        # 3-rowed plane partition counts 1,1,3,6,12,21 reduced mod 3
        assert out.strip() == "1,1,0,0,0,0"

    def test_certificate_doc_shape(self, instance_path):
        from congcert import CongruenceFamily, GFKind, Modulus, certify

        cert = certify(
            GFKind.plane_rowed(3), CongruenceFamily(3, (2,), (), Modulus(3, 1))
        )
        doc = certificate_doc(cert)
        assert set(doc) == {
            "status", "prime", "exponent", "delta", "family",
            "period", "check_bound", "witness", "derivation",
        }


class TestRemovedKeys:
    def test_window_key_rejected(self):
        with pytest.raises(ParseError, match="unknown key 'window'"):
            parse_instance_file(THREE_ROWED + "window = 3\n")
