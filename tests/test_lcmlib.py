"""Checks for the common-multiple witness machinery.

The load-bearing property, checked directly against the quotient lists:
whenever a finite quotient kills one of the targets it kills the witness,
so the witness survives only where every target survives.
"""

import hashlib
import json
import random
from types import SimpleNamespace

import pytest

import resfin.lcmlib
from resfin.errors import InputError
from resfin.lcmlib import (
    _in_power_closure,
    cert_from_json,
    cert_to_json,
    closure_membership,
    exact_lcm_small,
    lcm_ball_witness,
    lcm_witness,
    power_set_witness,
    verify_certificate,
)
from resfin.lowindex import enumerate_normal
from resfin.permrep import eval_word
from resfin.words import (
    Ball,
    SLWord,
    _free_reduce,
    format_word,
    generator,
    parse_word,
    power,
    sl_length_bound,
)

from oracles import level_overhead

X = generator(2, 1)
Y = generator(2, 2)


def _survival_respects_targets(cert, order_cap=6):
    for q in range(2, order_cap + 1):
        for quot in enumerate_normal(cert.rank, q):
            target_dies = any(
                eval_word(quot, t) == tuple(range(quot.degree)) for t in cert.targets
            )
            witness_survives = eval_word(quot, cert.word) != tuple(range(quot.degree))
            if target_dies and witness_survives:
                return False
    return True


# --- construction on pinned inputs ------------------------------------------


def test_pair_witness_is_the_plain_commutator():
    cert = lcm_witness([X, Y])
    assert format_word(cert.flat) == "abAB"
    assert cert.declared_bound == 4
    assert cert.nontrivial_verified
    assert verify_certificate(cert)
    assert _survival_respects_targets(cert)


def test_duplicate_targets_force_a_conjugator():
    cert = lcm_witness([X, X])
    assert format_word(cert.flat) == "abaBAbAB"
    assert cert.declared_bound == 8
    assert verify_certificate(cert)
    assert _survival_respects_targets(cert)


def test_power_pair_witness():
    cert = lcm_witness([X, power(X, 2)])
    assert format_word(cert.flat) == "abaaBAbAAB"
    assert cert.declared_bound == 10
    assert verify_certificate(cert)
    assert _survival_respects_targets(cert)


def test_singleton_witness_is_the_target():
    w = parse_word("abb", 2)
    cert = lcm_witness([w])
    assert cert.flat == w
    assert len(cert.derivations) == 1
    assert [s["rule"] for s in cert.derivations[0]] == ["ground"]
    assert verify_certificate(cert)


def test_ball_witness_radius_one():
    cert = lcm_ball_witness(2, 1)
    assert len(cert.targets) == 4
    assert cert.nontrivial_verified
    assert len(cert.flat) <= cert.declared_bound
    assert cert.declared_bound <= 4**2 * 1 + level_overhead(2)
    assert cert.declared_bound <= 6 * 1 * 4**2
    assert verify_certificate(cert)
    assert _survival_respects_targets(cert)


def test_ball_witness_radius_two_bounds():
    cert = lcm_ball_witness(2, 2)
    assert len(cert.targets) == 16
    assert cert.declared_bound == sl_length_bound(cert.word)
    assert cert.declared_bound <= 4**4 * 2 + level_overhead(4)
    assert cert.declared_bound <= 6 * 2 * 4**4
    assert len(cert.flat) <= cert.declared_bound
    assert verify_certificate(cert)


def test_ball_witness_past_the_flat_cap():
    # radius 6: the reduced forms outgrow the flat cap during pairing, so
    # later levels conjugate by b unchecked and nontriviality stays open
    cert = lcm_ball_witness(2, 6)
    assert len(cert.targets) == 1456
    assert cert.flat is None and not cert.nontrivial_verified
    assert cert.declared_bound == 19_261_908
    assert verify_certificate(cert)
    # each quotient of order q <= 6 kills a^q, a target, and so the witness
    for q in range(2, 7):
        for quot in enumerate_normal(2, q):
            assert eval_word(quot, cert.word) == tuple(range(quot.degree))


def test_rank_one_witness_is_the_numeric_lcm():
    x = generator(1, 1)
    cert = lcm_witness([power(x, 2), power(x, 3)])
    assert cert.flat == power(x, 6)
    assert cert.declared_bound == 6
    assert verify_certificate(cert)
    rules = [s["rule"] for s in cert.derivations[0]]
    assert rules == ["ground", "power"]


def test_rank_one_witness_when_the_lcm_is_one():
    x = generator(1, 1)
    for targets in ([power(x, -1)], [x, power(x, -1)]):
        cert = lcm_witness(targets)
        assert cert.flat == x
        assert cert.declared_bound == 1
        assert verify_certificate(cert)


def test_input_validation():
    with pytest.raises(InputError):
        lcm_witness([])
    with pytest.raises(InputError):
        lcm_witness([X, generator(3, 1)])
    with pytest.raises(InputError):
        lcm_witness([X, power(X, 0)])
    with pytest.raises(InputError, match="targets must be FreeWord, got str"):
        lcm_witness([X, "a"])


def _frozen_target_sets():
    sets = [
        list(Ball(rank, n).nontrivial())
        for rank, n in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2))
    ]
    rng = random.Random(2009)
    for rank in (2, 3):
        pool = list(Ball(rank, 3).nontrivial())
        for _ in range(40):
            sets.append([rng.choice(pool) for _ in range(rng.randint(1, 9))])
    sets += [[power(X, i) for i in range(1, k + 1)] for k in range(1, 30)]
    # past the flat cap after one level, so the second conjugates by b unchecked
    sets.append([power(X, 250_000 + i) for i in range(4)])
    return sets


def test_certificate_bytes_are_frozen():
    digest = hashlib.sha256()
    certs = [lcm_witness(s) for s in _frozen_target_sets()]
    certs.append(lcm_ball_witness(2, 4))
    for cert in certs:
        digest.update(json.dumps(cert_to_json(cert)).encode())
    assert sum(cert.flat is None for cert in certs) == 1
    assert (len(certs), digest.hexdigest()) == (
        116,
        "b674e1331837dc33f91b6466bce54a7a72f28ee7a6194885edc7116d91cc7a69",
    )


# --- the overhead recursion --------------------------------------------------


def test_level_overhead_recursion():
    assert level_overhead(0) == 0
    acc = 0
    for k in range(1, 9):
        acc = 4 * acc + 4
        assert level_overhead(k) == acc
    with pytest.raises(InputError):
        level_overhead(-1)


# --- certificate verification ------------------------------------------------


def test_json_roundtrip_preserves_everything():
    cert = lcm_ball_witness(2, 1)
    data = json.loads(json.dumps(cert_to_json(cert)))
    back = cert_from_json(data)
    assert verify_certificate(back)
    assert back.declared_bound == cert.declared_bound
    assert back.flat == cert.flat
    assert back.targets == cert.targets
    assert back.word.nodes == cert.word.nodes


def test_verifier_rejects_wrong_bound():
    data = cert_to_json(lcm_witness([X, Y]))
    data["declared_bound"] += 1
    result = verify_certificate(cert_from_json(data))
    assert not result
    assert any("bound" in f for f in result.failures)


def test_verifier_rejects_truncated_derivation():
    data = cert_to_json(lcm_witness([X, Y]))
    data["derivations"][0] = data["derivations"][0][:-1]
    result = verify_certificate(cert_from_json(data))
    assert not result
    assert any("never reaches" in f for f in result.failures)


def test_verifier_rejects_tampered_premise():
    data = cert_to_json(lcm_ball_witness(2, 1))
    for steps in data["derivations"]:
        for step in steps:
            if step["premises"]:
                step["premises"] = [step["node"]]
    result = verify_certificate(cert_from_json(data))
    assert not result


def test_verifier_rejects_wrong_flat():
    data = cert_to_json(lcm_witness([X, Y]))
    data["flat"] = "aa"
    result = verify_certificate(cert_from_json(data))
    assert not result
    assert any("reduced form" in f for f in result.failures)


def test_verifier_rejects_unbacked_nontriviality_claim():
    data = cert_to_json(lcm_witness([X, Y]))
    data["flat"] = None
    data["nontrivial_verified"] = True
    result = verify_certificate(cert_from_json(data))
    assert not result
    assert any("evidence" in f for f in result.failures)


def test_verifier_accepts_structural_nontriviality_past_the_flat_cap():
    # the lcm of a^101, a^103, a^107 is a^1113121, too long to flatten, so
    # the claim of nontriviality rests on the root alone: a nonzero power
    # of a generator
    a = generator(1, 1)
    cert = lcm_witness([power(a, 101), power(a, 103), power(a, 107)])
    assert (cert.flat, cert.declared_bound, cert.nontrivial_verified) == (None, 1113121, True)
    assert verify_certificate(cert)
    data = cert_to_json(cert)
    assert verify_certificate(cert_from_json(json.loads(json.dumps(data))))
    data["nodes"][data["root"]][2] = 0
    result = verify_certificate(cert_from_json(data))
    assert "nontriviality is claimed without evidence" in result.failures


def test_verifier_rejects_a_ground_step_on_another_node():
    data = cert_to_json(lcm_witness([X, Y]))
    data["derivations"][0][0]["node"] = data["derivations"][1][0]["node"]
    result = verify_certificate(cert_from_json(data))
    assert "derivation 0 step 0: ground node is not the target" in result.failures


def test_verifier_rejects_a_power_step_with_a_wrong_exponent():
    x = generator(1, 1)
    data = cert_to_json(lcm_witness([power(x, 2), power(x, 3)]))
    step = data["derivations"][0][1]
    assert (step["rule"], step["exponent"]) == ("power", 3)
    step["exponent"] = 4
    result = verify_certificate(cert_from_json(data))
    assert result.failures == (
        "derivation 0 step 1: node is not the premise to the exponent",
    )


def test_verifier_takes_a_power_step_only_along_pow_nodes():
    # (aa)^3 is a^6, yet pow(a, 6) is not a power node over the premise
    # aa, so only the second shape is accepted
    for last, failures in (
        (["pow", 0, 6], ("derivation 0 step 1: node is not the premise to the exponent",)),
        (["pow", 1, 3], ()),
    ):
        data = {
            "rank": 1,
            "targets": ["aa"],
            "nodes": [["gen", 1], ["mul", 0, 0], last],
            "root": 2,
            "declared_bound": 6,
            "derivations": [[
                {"rule": "ground", "node": 1, "premises": []},
                {"rule": "power", "node": 2, "premises": [1], "exponent": 3},
            ]],
            "flat": "aaaaaa",
            "nontrivial_verified": True,
        }
        assert verify_certificate(cert_from_json(data)).failures == failures


def test_verifier_rejects_each_structural_rule_on_a_wrong_node():
    # lcm(a, a) conjugates its right entry: derivation 0 is ground then
    # commutator_left, derivation 1 ground, conjugate, commutator_right
    fresh = cert_to_json(lcm_witness([X, X]))
    for index, pos, rule, message in (
        (1, 1, "conjugate", "node is not a conjugate of the premise"),
        (0, 1, "commutator_left", "node is not a commutator with left premise"),
        (1, 2, "commutator_right", "node is not a commutator with right premise"),
    ):
        data = json.loads(json.dumps(fresh))
        steps = data["derivations"][index]
        assert steps[pos]["rule"] == rule
        steps[pos]["node"] = steps[0]["node"]
        failures = verify_certificate(cert_from_json(data)).failures
        assert failures[0] == f"derivation {index} step {pos}: {message}"
    # conjugating by a itself leaves a pair that commutes: every step
    # replays, but the witness is the identity
    data = json.loads(json.dumps(fresh))
    assert data["nodes"][2] == ["conj", 0, 1]
    data["nodes"][2] = ["conj", 0, 0]
    data["flat"] = ""
    assert verify_certificate(cert_from_json(data)).failures == (
        "witness reduces to the identity",
    )


def test_replay_builds_no_checked_straight_line_word(monkeypatch):
    # the certificate's word was checked once when it was built; the
    # replay reads its nodes from other roots without checking them again
    certs = [lcm_ball_witness(2, 2), lcm_witness([power(generator(1, 1), 4)])]

    def refuse(self, rank, nodes, root):
        raise AssertionError("SLWord.__init__ called")

    monkeypatch.setattr(SLWord, "__init__", refuse)
    for cert in certs:
        assert verify_certificate(cert)


class NodeSpy(tuple):
    """Instruction tuple that records which indices were read, item or slice."""

    def __getitem__(self, i):
        picked = range(len(self))[i]
        self.read.update(picked if isinstance(i, slice) else (picked,))
        return tuple.__getitem__(self, i)

    def __iter__(self):
        self.read.update(range(len(self)))
        return tuple.__iter__(self)


def test_replay_reads_only_the_subtrees_it_checks(monkeypatch):
    # each ground step flattens one node, and a stored flat form is checked
    # by flattening the root; none of them may read a node its root does not depend on, so replay
    # stays linear in the derivation steps, not in steps times nodes
    cert = lcm_ball_witness(2, 6)
    nodes = cert.word.nodes

    def closure(root):
        seen, todo = {root}, [root]
        while todo:
            op, *args = nodes[todo.pop()]
            for ref in () if op == "gen" else args[:1] if op == "pow" else args:
                if ref not in seen:
                    seen.add(ref)
                    todo.append(ref)
        return len(seen)

    real = resfin.lcmlib.sl_flatten
    reads = []

    def spying_flatten(w, cap):
        spy = NodeSpy(w.nodes)
        spy.read = set()
        # _rooted reads only .rank and .nodes from the word it is given
        out = real(SLWord._rooted(SimpleNamespace(rank=w.rank, nodes=spy), w.root), cap)
        reads.append(len(spy.read))
        return out

    monkeypatch.setattr(resfin.lcmlib, "sl_flatten", spying_flatten)
    assert verify_certificate(cert).ok
    grounds = [s["node"] for steps in cert.derivations for s in steps if s["rule"] == "ground"]
    assert len(reads) == len(grounds) + (cert.flat is not None)
    assert sum(reads) <= sum(map(closure, grounds)) + closure(cert.word.root)


def test_malformed_json_is_an_input_error():
    with pytest.raises(InputError):
        cert_from_json({"rank": 2})
    # text nested past the JSON parser's depth
    with pytest.raises(InputError, match="malformed certificate: maximum recursion depth"):
        cert_from_json("[" * 100_000)


def test_container_fields_must_have_their_json_type():
    # a string where the target list belongs would iterate as one target
    # per letter, and a step written as [key, value] pairs would convert to
    # a dict; both edits of a sound certificate would then verify
    data = cert_to_json(lcm_witness([X, Y]))
    assert data["targets"] == ["a", "b"] and verify_certificate(cert_from_json(data))
    pairs = [[list(step.items()) for step in steps] for steps in data["derivations"]]
    for key, value, message in (
        ("targets", "ab", "targets is not a JSON list"),
        ("derivations", pairs, "derivation step is not a JSON object"),
        ("derivations", {"0": data["derivations"][0]}, "derivations is not a JSON list"),
        ("derivations", [tuple(data["derivations"][0])], "derivation is not a JSON list"),
        ("nodes", {"0": data["nodes"][0]}, "nodes is not a JSON list"),
    ):
        with pytest.raises(InputError, match=f"^malformed certificate: {message}$"):
            cert_from_json({**data, key: value})


# --- exact small search -------------------------------------------------------


def test_exact_lcm_small_pinned_values():
    assert format_word(exact_lcm_small([X])) == "a"
    assert format_word(exact_lcm_small([Y])) == "b"
    assert format_word(exact_lcm_small([X, Y])) == "abAB"
    assert format_word(exact_lcm_small([X, power(X, 2)])) == "aa"
    # the closure of x^7 holds no nontrivial word shorter than x^7
    assert exact_lcm_small([power(X, 7)]) is None


def test_exact_lcm_rejects_general_targets():
    with pytest.raises(InputError):
        exact_lcm_small([parse_word("abAB", 2)])


def test_construction_overshoots_exact_lcm_but_stays_sound():
    # The pairing gives length 10 for {x, x^2} while the true first common
    # member is x^2; both lie in both closures.
    cert = lcm_witness([X, power(X, 2)])
    exact = exact_lcm_small([X, power(X, 2)])
    assert len(exact) < len(cert.flat)
    for g, m in ((1, 1), (1, 2)):
        assert closure_membership(cert.flat, power(X, m) if m > 1 else X) is True
        assert closure_membership(exact, power(X, m) if m > 1 else X) is True


# --- closure membership --------------------------------------------------------


def test_closure_membership_exact_cases():
    assert closure_membership(parse_word("abAB", 2), X) is True
    assert closure_membership(Y, X) is False
    assert closure_membership(power(X, 6), power(X, 2)) is True
    assert closure_membership(power(X, 3), power(X, 2)) is False
    assert closure_membership(parse_word("baaB", 2), power(X, 2)) is True


def _closure_by_fixpoint(letters, gen, modulus):
    """Reference: fold each run of gen letters to its balanced residue mod
    modulus, freely reduce, and repeat until the word stops changing."""
    while True:
        out, i = [], 0
        while i < len(letters):
            if abs(letters[i]) != gen:
                out.append(letters[i])
                i += 1
                continue
            e = 0
            while i < len(letters) and abs(letters[i]) == gen:
                e += 1 if letters[i] > 0 else -1
                i += 1
            e %= modulus
            if 2 * e > modulus:
                e -= modulus
            out.extend([gen] * e if e >= 0 else [-gen] * -e)
        step = _free_reduce(out)
        if step == letters:
            return not letters
        letters = step


def test_power_closure_agrees_with_the_fixpoint_route():
    cases = 0
    for rank, n in ((1, 10), (2, 6), (3, 4)):
        for w in Ball(rank, n):
            for gen in range(1, rank + 1):
                for m in range(1, 7):
                    expect = _closure_by_fixpoint(w.letters, gen, m)
                    assert _in_power_closure(w, gen, m) is expect, (w, gen, m)
                    cases += 1
    assert cases == 34_476


def test_closure_membership_general_targets():
    comm = parse_word("abAB", 2)
    # refuted through a small quotient
    assert closure_membership(parse_word("aabb", 2), comm) is False
    # genuinely in the closure, but not confirmable by refutation scans
    assert closure_membership(parse_word("babABB", 2), comm) is None
    with pytest.raises(InputError):
        closure_membership(X, power(X, 0))
    with pytest.raises(InputError, match="rank mismatch: 1 vs 2"):
        closure_membership(generator(1, 1), comm)
    assert closure_membership(power(X, 0), comm) is True


# --- power-set reports ----------------------------------------------------------


def test_power_set_witness_report():
    report = power_set_witness(2, 3)
    assert report["normal_divisibility_lower"] == 4
    assert report["scanned_orders"] == [2, 3]
    assert report["scan_all_killed"]
    assert report["nontrivial_verified"]
    assert verify_certificate(report["certificate"])


def test_power_set_witness_rank_one():
    report = power_set_witness(1, 4)
    cert = report["certificate"]
    assert cert.flat == power(generator(1, 1), 12)
    assert report["normal_divisibility_lower"] == 5
    assert verify_certificate(cert)


# --- randomized soundness ---------------------------------------------------------


def test_random_target_sets_verify_and_respect_survival():
    rng = random.Random(11)
    pool = list(Ball(2, 2).nontrivial())
    for _ in range(12):
        targets = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
        cert = lcm_witness(targets)
        assert verify_certificate(cert)
        assert cert.declared_bound == sl_length_bound(cert.word)
        assert _survival_respects_targets(cert, order_cap=4)
