"""End-to-end runs of the command line, including error paths."""

from __future__ import annotations

import json
import time

import pytest

from realpv.cli import main
from realpv.correspondence import MAX_ROOT_ORDER
from realpv.errors import ScenarioError
from realpv.poly import MAX_DEGREE
from realpv.scenario import Scenario, scenario_from_dict

SCENARIOS = "scenarios"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- happy paths -------------------------------------------------------------------


@pytest.mark.parametrize("name", ["circle", "exp", "sqrt", "constcoeff"])
def test_all_passes_on_shipped_scenarios(capsys, name):
    code, out, err = run(capsys, "all", f"{SCENARIOS}/{name}.json")
    assert code == 0, err
    assert "FAIL" not in out


def test_build_text_mentions_certificates(capsys):
    code, out, _ = run(capsys, "build", f"{SCENARIOS}/circle.json")
    assert code == 0
    assert "solutions_satisfy_equation" in out
    assert "wronskian_invertible" in out
    assert "no_new_constants_in_window" in out
    assert "[PASS]" in out


def test_group_reports_defining_equations(capsys):
    code, out, _ = run(capsys, "group", f"{SCENARIOS}/circle.json")
    assert code == 0
    assert "X11 - X22" in out or "X22" in out
    code, out, _ = run(capsys, "group", f"{SCENARIOS}/exp.json")
    assert code == 0
    assert "none (the group is all of GL1)" in out


def test_correspond_circle(capsys):
    code, out, _ = run(capsys, "correspond", f"{SCENARIOS}/circle.json")
    assert code == 0
    assert "fixed field" in out
    assert "K(c^2, s*c)" in out


def test_correspond_sqrt_mu3_has_a_quotient_over_the_base(capsys, tmp_path):
    # MU_N(3) meets the group {1, -1} of sqrt(t) trivially, so the fixed
    # field is K(g) and its generator g^3 = g*t has the rate 3 * 1/(2t)
    path = tmp_path / "sqrt_mu3.json"
    path.write_text(json.dumps({
        "equation": {"class": "RADICAL", "coefficients": ["-1/2 * 1/t"]},
        "subgroup": {"kind": "MU_N", "order": 3},
    }))
    code, out, err = run(capsys, "correspond", str(path))
    assert (code, err) == (0, "")
    assert "Y' = ((3/2)/(t))*Y at g*t" in out


def test_correspond_exp_at_the_largest_root_order(capsys, tmp_path):
    # the fixed field's window has degree q, so the generic member's table
    # of monomial images reaches e^q
    q = MAX_ROOT_ORDER
    path = tmp_path / "exp_mu_max.json"
    path.write_text(json.dumps({
        "equation": {"class": "EXP", "coefficients": ["-1"]},
        "subgroup": {"kind": "MU_N", "order": q},
    }))
    code, out, err = run(capsys, "correspond", str(path))
    assert (code, err) == (0, "")
    assert f"[INFO] fixed field: K(e^{q})" in out
    assert out.endswith("result: ok\n")


@pytest.mark.parametrize("command", ["all", "correspond"])
def test_radical_index_above_the_root_order_limit_is_refused(capsys, tmp_path, command):
    # g^1000000 = t has the group MU_N(1000000), whose order is past the
    # limit of the named descriptors: refused, not a traceback
    path = tmp_path / "radical_big.json"
    path.write_text(json.dumps({
        "base_var": "t",
        "equation": {"class": "RADICAL", "coefficients": ["-1/1000000 * 1/t"]},
        "subgroup": {"kind": "FULL"},
    }))
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (1, "")
    assert err == (
        "error: root-of-unity order 1000000 of the subgroup is above the limit "
        f"of {MAX_ROOT_ORDER}\n"
    )


@pytest.mark.parametrize(
    "coefficient, flags",
    [
        ("-3/2 * 1/t", ()),
        ("-5/2 * 1/t", ("--scan-degree", "6", "--scan-coeff-degree", "5")),
    ],
)
def test_build_radical_whose_window_writes_one_twice(capsys, tmp_path, coefficient, flags):
    # g^2 = t^3 (or t^5) is a PV extension; its window holds g^2/t^3 (or
    # g^2/t^5), which is 1 again: a scalar, not a new constant
    path = tmp_path / "radical.json"
    path.write_text(json.dumps({
        "base_var": "t",
        "equation": {"class": "RADICAL", "coefficients": [coefficient]},
    }))
    code, out, err = run(capsys, "build", str(path), *flags)
    assert (code, err) == (0, "")
    assert "[PASS] no_new_constants_in_window" in out


@pytest.mark.parametrize("q", [9, 12, 60])
def test_correspond_exp_recognizes_every_mu_n(capsys, tmp_path, q):
    path = tmp_path / f"exp_mu{q}.json"
    path.write_text(json.dumps({
        "base_var": "t",
        "equation": {"class": "EXP", "coefficients": ["-1"]},
        "subgroup": {"kind": "MU_N", "order": q},
    }))
    code, out, err = run(capsys, "correspond", str(path))
    assert (code, err) == (0, "")
    assert f"MU_N({q}) -> K(e^{q}) -> MU_N({q})" in out
    assert "FAIL" not in out
    assert out.splitlines()[-1] == "result: ok"


def test_twist_circle(capsys):
    code, out, _ = run(capsys, "twist", f"{SCENARIOS}/circle.json")
    assert code == 0
    assert "[PASS] twisted field is not formally real: v , u  squares sum to -1" in out
    assert "non-reality witness" not in out


def test_twist_fourth_root_by_minus_one_is_isomorphic(capsys):
    # g^4 = t: the cocycle -1 is the coboundary of B = i, which lies in mu_4
    code, out, err = run(capsys, "twist", "tests/scenarios/radical_q4_twist.json")
    assert (code, err) == (0, "")
    assert "isomorphic to the original extension" in out
    assert "[PASS] B lies in the group and B * conj(B)^-1 = A: B = diag(i)" in out


@pytest.mark.parametrize(
    "coefficient, q, relation",
    [("-3/2 * 1/t", 2, "-t^3 - h^2"), ("-1/6 * 1/t", 6, "-h^6 - t")],
)
def test_twist_radical_reads_the_power_from_the_relation(
    capsys, tmp_path, coefficient, q, relation
):
    # g^2 = t^3, whose rewrite order writes t^3 as g^2, and g^6 = t: the
    # twist by -1 is h^2 = -t^3 (h^6 = -t), and the pair report reads g^q
    # and h^q over the base from the two relations
    path = tmp_path / "radical.json"
    path.write_text(json.dumps({
        "base_var": "t",
        "equation": {"class": "RADICAL", "coefficients": [coefficient]},
        "cocycle": [["-1"]],
    }))
    code, out, err = run(capsys, "twist", str(path))
    assert (code, err) == (0, "")
    assert f"at g = i*h is {relation}\n" in out
    assert f"[PASS] matching generators forces gamma^{q} = -1" in out
    assert f"g^{q} / h^{q} re-read over the base is -1\n" in out
    assert out.splitlines()[-1] == "result: ok"


@pytest.mark.parametrize(
    "name", ["weak-normality", "so2-forms", "radical-forms", "seidenberg"]
)
def test_demos_pass(capsys, name):
    code, out, _ = run(capsys, "demo", name)
    assert code == 0
    assert "FAIL" not in out


@pytest.mark.parametrize(
    "argv",
    [("demo", "so2-forms"), ("twist", f"{SCENARIOS}/circle.json")],
    ids=["so2-forms", "twist"],
)
def test_so2_forms_checks_the_witness(capsys, monkeypatch, argv):
    import realpv.realforms as realforms

    found = realforms.non_reality_witness
    # doubled witnesses have squares summing to -4
    monkeypatch.setattr(
        realforms,
        "non_reality_witness",
        lambda tw: tuple(x.scale(2) for x in found(tw)),
    )
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert "[FAIL] twisted field is not formally real: 2*v , 2*u  squares sum to -4" in out
    assert ("[PASS] original field has no such witness" in out) == (argv[0] == "demo")


def test_weak_normality_demo_text(capsys):
    _, out, _ = run(capsys, "demo", "weak-normality")
    assert "1 real member(s) vs 3" in out


def test_all_builds_extension_ideal_and_group_once(capsys, monkeypatch):
    import realpv.cli as cli

    calls = {}
    for name in ("build_pv", "defining_equations"):
        def counted(*args, _orig=getattr(cli, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    expect = {"build_pv": 1, "defining_equations": 1}
    code, _, _ = run(capsys, "all", f"{SCENARIOS}/circle.json")
    assert code == 0
    assert calls == expect
    # nothing is kept between invocations: a second call builds everything again
    code, _, _ = run(capsys, "all", f"{SCENARIOS}/circle.json")
    assert code == 0
    assert calls == {k: 2 * v for k, v in expect.items()}


# MU_N(1) on EXP: the fixed field is recognized as TRIVIAL, not as MU_N(1).
MU1_SCENARIO = "tests/scenarios/exp_mu1.json"


@pytest.mark.parametrize(
    "path,expect",
    [(f"{SCENARIOS}/circle.json", ["FINITE_LIST[2 elements]"]),
     (MU1_SCENARIO, ["MU_N(1)", "TRIVIAL"])],
    ids=["recognized_as_input", "recognized_as_other"],
)
def test_correspond_computes_each_fixed_field_once(capsys, monkeypatch, path, expect):
    import realpv.correspondence as corr

    calls = []

    def counted(group, desc, *args, _orig=corr.fixed_field, **kwargs):
        calls.append(desc.label())
        return _orig(group, desc, *args, **kwargs)

    monkeypatch.setattr(corr, "fixed_field", counted)
    code, _, _ = run(capsys, "correspond", path)
    assert code == 0
    assert calls == expect


def test_field_round_trip_fails_on_a_different_recomputed_field(capsys, monkeypatch):
    import realpv.correspondence as corr

    def skewed(group, desc, *args, _orig=corr.fixed_field, **kwargs):
        if desc == corr.TRIVIAL:
            return corr.IntermediateField(group.pv, ())
        return _orig(group, desc, *args, **kwargs)

    monkeypatch.setattr(corr, "fixed_field", skewed)
    code, out, _ = run(capsys, "correspond", MU1_SCENARIO)
    assert code == 1
    assert "[FAIL] field round trip: K(e) vs K\n" in out


def test_all_maps_generators_to_solution_slots_once(capsys, monkeypatch):
    import realpv.galois as galois

    calls = []

    def counted(pv, _orig=galois._solution_slot_of_generators):
        calls.append(pv)
        return _orig(pv)

    monkeypatch.setattr(galois, "_solution_slot_of_generators", counted)
    code, _, _ = run(capsys, "all", f"{SCENARIOS}/circle.json")
    assert code == 0
    assert len(calls) == 1


# -- output modes -------------------------------------------------------------------


def test_json_output_is_valid_and_deterministic(capsys):
    code1, out1, _ = run(capsys, "all", f"{SCENARIOS}/circle.json", "--json")
    code2, out2, _ = run(capsys, "all", f"{SCENARIOS}/circle.json", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert isinstance(payload, list) and len(payload) >= 3


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "build", f"{SCENARIOS}/exp.json", "--json", "--out", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["data"]["class"] == "EXP"


def test_out_flag_to_an_unwritable_path_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "build", f"{SCENARIOS}/circle.json", "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {target}: No such file or directory\n"


def test_scan_override_can_fail_honestly(capsys):
    # widening the scan window cannot invent constants for a sound extension
    code, out, _ = run(
        capsys, "build", f"{SCENARIOS}/exp.json", "--scan-degree", "5"
    )
    assert code == 0


# -- error paths --------------------------------------------------------------------


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "build", "no-such-file.json")
    assert code == 2
    assert "scenario error" in err


def test_unknown_key_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "equation": {"class": "EXP", "coefficients": ["-1"], "extra": 1}
    }))
    code, _, err = run(capsys, "build", str(bad))
    assert code == 2
    assert "scenario.equation" in err
    assert "extra" in err


def test_bad_class_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "equation": {"class": "AIRY", "coefficients": ["t"]}
    }))
    code, _, err = run(capsys, "build", str(bad))
    assert code == 2
    assert "scenario.equation.class" in err


@pytest.mark.parametrize(
    "equation, name",
    [
        ({"class": "EXP", "coefficients": ["i"]}, "e"),
        (
            {"class": "RADICAL", "coefficients": ["-1/2 * 1/t"], "radical_base": "i*t"},
            "g",
        ),
    ],
)
def test_complex_declared_data_is_refused(capsys, tmp_path, equation, name):
    bad = tmp_path / "complex.json"
    bad.write_text(json.dumps({"base_var": "t", "equation": equation}))
    code, out, err = run(capsys, "build", str(bad))
    assert (code, out) == (1, "")
    assert err == f"error: generator {name!r} uses complex coefficients in a real tower\n"


@pytest.mark.parametrize(
    "coefficient, radical_base, power, why",
    [
        ("-10000/t", "3*t", 10000, "has an integer of more than 1000 digits"),
        ("-256*2*t/(t^2+1)", "t^2+1", 256, "expands to more than 256 terms"),
        ("-60/(t+10^20)", "t+10^20", 60, "has an integer of more than 1000 digits"),
    ],
    ids=["leading_height", "terms", "computed_digits"],
)
def test_radical_power_over_the_budget_is_refused(
    capsys, tmp_path, coefficient, radical_base, power, why
):
    """The relation g^q = f^p stays within the budgets of `^`: the term and
    leading-height bounds refuse f^p before it is computed, and a power with
    a wider integer further down is refused once computed."""
    bad = tmp_path / "radical.json"
    bad.write_text(json.dumps({"base_var": "t", "equation": {
        "class": "RADICAL", "coefficients": [coefficient], "radical_base": radical_base,
    }}))
    code, out, err = run(capsys, "build", str(bad))
    assert (code, out) == (1, "")
    assert err == f"error: radical power f^{power} not supported: the power {why}\n"


@pytest.mark.parametrize(
    "coefficient, radical_base, why",
    [
        ("-1/(3000000000*t)", "t",
         "radical index q = 3000000000 not supported: past the degree limit"),
        ("-3000000000/t", "t",
         "radical power f^3000000000 not supported: the power has degree 3000000000, past the limit"),
        ("-4000000000/t", "t^2000000000",
         "radical power f^2 not supported: the power has degree 4000000000, past the limit"),
    ],
    ids=["index", "power", "base_degree"],
)
def test_radical_past_the_degree_limit_is_refused(capsys, tmp_path, coefficient, radical_base, why):
    """g^q = f^p with q or p * deg f past MAX_DEGREE is refused with an
    error line naming it and the limit, not a traceback or a wrong key."""
    bad = tmp_path / "radical.json"
    bad.write_text(json.dumps({"base_var": "t", "equation": {
        "class": "RADICAL", "coefficients": [coefficient], "radical_base": radical_base,
    }}))
    code, out, err = run(capsys, "build", str(bad))
    assert (code, out) == (1, "")
    assert err == f"error: {why} of {MAX_DEGREE}\n"


@pytest.mark.parametrize(
    "equation, why",
    [
        ({"class": "EXP", "coefficients": ["-t^2147483647"]},
         "EXP generator not supported: the numerator of e' = rate*e has degree 2147483648"),
        ({"class": "RADICAL", "coefficients": ["-1/(2147483647*t*(t+1))"],
          "radical_base": "t/(t+1)"},
         "RADICAL relation not supported: den*g^2147483647 - num for f^1 = num/den "
         "has degree 2147483648"),
    ],
    ids=["exp_numerator", "radical_relation"],
)
def test_generator_past_the_degree_limit_is_refused_by_its_builder(
    capsys, tmp_path, equation, why
):
    """A generator whose declared data would pass MAX_DEGREE is refused by
    its class builder, with a line that names the class, the quantity and
    the limit, not by the product that would pass it."""
    bad = tmp_path / "limit.json"
    bad.write_text(json.dumps({"equation": equation}))
    code, out, err = run(capsys, "build", str(bad))
    assert (code, out) == (1, "")
    assert err == f"error: {why}, past the limit of {MAX_DEGREE}\n"


@pytest.mark.parametrize(
    "coefficient, stage, degree",
    [
        ("-t^2147483646", "computing the certificate no_new_constants_in_window", 2147483648),
        ("-1/t^2147483647", "building the tower", 4294967293),
    ],
    ids=["in_the_scan", "in_the_tower"],
)
def test_degree_past_the_limit_names_its_stage(capsys, tmp_path, coefficient, stage, degree):
    """A declared rate that passes its builder's check can still form a
    product past MAX_DEGREE: e' = t^2147483646*e in the constant scan,
    e' = -e/t^2147483647 in the derivative of the tower's common
    denominator.  The refusal names the class, the stage and the degree."""
    bad = tmp_path / "limit.json"
    bad.write_text(json.dumps({"equation": {"class": "EXP", "coefficients": [coefficient]}}))
    code, out, err = run(capsys, "build", str(bad))
    assert (code, out) == (1, "")
    assert err == (
        f"error: EXP not supported: {stage}: "
        f"a monomial degree {degree} is past the limit of {MAX_DEGREE}\n"
    )


def test_power_past_the_degree_limit_is_usage_error(capsys, tmp_path):
    """t^3000000000 is a parse error at its `^`, not an equation with a
    monomial past the degree limit."""
    bad = tmp_path / "power.json"
    bad.write_text(json.dumps({"equation": {"class": "EXP", "coefficients": ["-t^3000000000"]}}))
    code, out, err = run(capsys, "build", str(bad))
    assert (code, out) == (2, "")
    assert err == (
        "scenario error at scenario.equation.coefficients[0]: parse error at column 3: "
        f"the power has degree 3000000000, past the limit of {MAX_DEGREE} in '-t^3000000000'\n"
    )


def test_non_ascii_digit_is_usage_error(capsys, tmp_path):
    """A coefficient written with an Arabic-Indic digit is a parse error,
    not the integer 3."""
    bad = tmp_path / "digit.json"
    bad.write_text(json.dumps({"equation": {"class": "EXP", "coefficients": ["-\u0663"]}}))
    code, out, err = run(capsys, "build", str(bad))
    assert (code, out) == (2, "")
    assert "scenario.equation.coefficients[0]" in err
    assert "parse error at column 2: unexpected character" in err


def test_non_ascii_space_is_usage_error(capsys, tmp_path):
    """A coefficient spaced with a no-break space is a parse error, not
    -1."""
    bad = tmp_path / "space.json"
    bad.write_text(json.dumps({"equation": {"class": "EXP", "coefficients": ["-\u00a01"]}}))
    code, out, err = run(capsys, "build", str(bad))
    assert (code, out) == (2, "")
    assert "scenario.equation.coefficients[0]" in err
    assert "parse error at column 2: unexpected character" in err


def test_unsupported_equation_is_math_failure(capsys, tmp_path):
    bad = tmp_path / "irr.json"
    bad.write_text(json.dumps({
        "equation": {"class": "CONSTCOEFF2", "coefficients": ["-2", "0"]}
    }))
    code, _, err = run(capsys, "build", str(bad))
    assert code == 1
    assert "error:" in err


def test_finite_list_without_ideal_is_math_failure(capsys, tmp_path):
    bad = tmp_path / "quarter.json"
    bad.write_text(json.dumps({
        "equation": {"class": "CIRCLE", "coefficients": ["1", "0"]},
        "subgroup": {"kind": "FINITE_LIST", "matrices": [
            [["1", "0"], ["0", "1"]], [["0", "-1"], ["1", "0"]],
            [["-1", "0"], ["0", "-1"]], [["0", "1"], ["-1", "0"]]]},
    }))
    code, out, err = run(capsys, "correspond", str(bad))
    assert (code, out) == (1, "")
    assert err == "error: only {I}, {I, -I} finite lists have a polynomial description here\n"


def test_certificate_failure_prints_report(capsys, tmp_path):
    bad = tmp_path / "triv.json"
    bad.write_text(json.dumps({
        "equation": {"class": "EXP", "coefficients": ["0"]}
    }))
    code, _, err = run(capsys, "build", str(bad))
    assert code == 1
    assert "certificate failure" in err
    assert "no_new_constants_in_window" in err


MALFORMED_EXPRESSIONS = [
    (
        {"equation": {"class": "EXP", "coefficients": ["-1+"]}},
        "scenario.equation.coefficients[0]",
    ),
    (
        {"equation": {"class": "RADICAL", "coefficients": ["-1/2 * 1/t"],
                      "radical_base": "t^2+"}},
        "scenario.equation.radical_base",
    ),
    (
        {"equation": {"class": "CIRCLE", "coefficients": ["1", "0"]},
         "subgroup": {"kind": "FINITE_LIST", "matrices": [[["x", "0"], ["0", "1"]]]}},
        "scenario.subgroup.matrices[0][0][0]",
    ),
    (
        {"equation": {"class": "CIRCLE", "coefficients": ["1", "0"]},
         "cocycle": [["1", "0"], ["0", "1/0"]]},
        "scenario.cocycle[1][1]",
    ),
]


def test_truncated_expression_says_input_ended(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"equation": {"class": "EXP", "coefficients": ["-1+"]}}))
    code, out, err = run(capsys, "all", str(bad))
    assert (code, out) == (2, "")
    assert err == (
        "scenario error at scenario.equation.coefficients[0]: parse error at "
        "column 4: unexpected end of input in '-1+'\n"
    )


def test_power_that_expands_too_far_is_refused_quickly(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    raw = {"equation": {"class": "EXP", "coefficients": ["(t+1)^3000"]}}
    bad.write_text(json.dumps(raw))
    start = time.perf_counter()
    code, out, err = run(capsys, "build", str(bad))
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert err == (
        "scenario error at scenario.equation.coefficients[0]: parse error at "
        "column 6: the power expands to more than 256 terms in '(t+1)^3000'\n"
    )


@pytest.mark.parametrize(
    "text,column,where",
    [("3^10000", 2, "the power"), ("3^1500*3^1500", 14, "the expression")],
    ids=["power", "product"],
)
def test_coefficient_with_too_many_digits_is_refused(capsys, tmp_path, text, column, where):
    # 3^10000 has 4772 digits: it used to build and then crash printing it
    bad = tmp_path / "bad.json"
    raw = {"equation": {"class": "EXP", "coefficients": [text]}}
    bad.write_text(json.dumps(raw))
    code, out, err = run(capsys, "build", str(bad))
    assert (code, out) == (2, "")
    assert err == (
        "scenario error at scenario.equation.coefficients[0]: parse error at "
        f"column {column}: {where} has an integer of more than 1000 digits in {text!r}\n"
    )


@pytest.mark.parametrize("raw,location", MALFORMED_EXPRESSIONS,
                         ids=["coefficient", "radical_base", "finite_list", "cocycle"])
def test_malformed_expression_is_usage_error(capsys, tmp_path, raw, location):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, out, err = run(capsys, "all", str(bad))
    assert code == 2
    assert out == ""
    assert f"scenario error at {location}: " in err


@pytest.mark.parametrize(
    "flag,value,message",
    [("--scan-degree", "-1", "scan bounds out of range"),
     ("--scan-degree", "0", "scan bounds out of range"),
     ("--scan-coeff-degree", "-1", "scan bounds out of range"),
     ("--scan-degree", "21", "scan bound above the limit of 20"),
     ("--scan-coeff-degree", "21", "scan bound above the limit of 20"),
     ("--scan-coeff-degree", "10000", "scan bound above the limit of 20")],
    ids=["scan_degree_negative", "scan_degree_zero", "scan_coeff_degree",
         "scan_degree_over_limit", "scan_coeff_degree_over_limit", "scan_coeff_degree_huge"],
)
def test_out_of_range_flag_is_usage_error(capsys, flag, value, message):
    code, out, err = run(capsys, "build", f"{SCENARIOS}/circle.json", flag, value)
    assert (code, out) == (2, "")
    assert err == f"scenario error at {flag}: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [["build", f"{SCENARIOS}/circle.json", "--budget", "5"],
     ["demo", "seidenberg", "--scan-degree", "3"],
     ["demo", "seidenberg", "--scan-coeff-degree", "3"],
     ["demo", "seidenberg", "--budget", "5"]],
    ids=["build_budget", "demo_scan_degree", "demo_scan_coeff_degree", "demo_budget"],
)
def test_flag_the_command_does_not_take_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    flag, value = argv[-2:]
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_budget_key_is_unknown(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "equation": {"class": "EXP", "coefficients": ["-1"]}, "budget": 2000
    }))
    code, out, err = run(capsys, "build", str(bad))
    assert (code, out) == (2, "")
    assert err == "scenario error at scenario: unknown key ['budget']\n"


def test_scan_key_is_unknown(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "equation": {"class": "EXP", "coefficients": ["-1"]},
        "scan": {"degree": 4, "coeff_degree": 3},
    }))
    code, out, err = run(capsys, "build", str(bad))
    assert (code, out) == (2, "")
    assert err == "scenario error at scenario: unknown key ['scan']\n"


@pytest.mark.parametrize(
    "name,message",
    [("e", "'e' is a variable the package adjoins; pick another name"),
     ("s", "'s' is a variable the package adjoins; pick another name"),
     ("X11", "'X11' is a variable the package adjoins; pick another name"),
     ("i", "'i' is the imaginary unit"),
     ("1t", "'1t' is not a variable name")],
    ids=["e", "s", "X11", "i", "1t"],
)
def test_unusable_base_var_is_usage_error(capsys, tmp_path, name, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "base_var": name,
        "equation": {"class": "CIRCLE", "coefficients": ["1", "0"]},
        "subgroup": {"kind": "SO2"},
    }))
    code, out, err = run(capsys, "all", str(bad))
    assert (code, out) == (2, "")
    assert err == f"scenario error at scenario.base_var: {message}\n"


def test_deeply_nested_coefficient_is_refused(capsys, tmp_path):
    # 300 levels (606 characters) used to end in a RecursionError traceback
    bad = tmp_path / "bad.json"
    raw = {"equation": {"class": "EXP", "coefficients": ["(" * 300 + "-1" + ")" * 300]}}
    bad.write_text(json.dumps(raw))
    code, out, err = run(capsys, "build", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith(
        "scenario error at scenario.equation.coefficients[0]: parse error at "
        "column 101: parentheses nest more than 100 deep in '...((("
    )


def test_finite_list_does_not_depend_on_the_order_of_its_matrices(capsys, tmp_path):
    # {-I, I} was refused as no polynomial description, while {I, -I} was
    # answered
    raw = json.loads(open(f"{SCENARIOS}/circle.json").read())
    raw["subgroup"]["matrices"].reverse()
    swapped = tmp_path / "swapped.json"
    swapped.write_text(json.dumps(raw))
    code, out, err = run(capsys, "all", str(swapped))
    assert (code, err) == (0, "")
    assert out == run(capsys, "all", f"{SCENARIOS}/circle.json")[1]


# Each invalid scenario with the location and the message of its refusal.
SCENARIO_REFUSALS = {
    "not-an-object": ([], "scenario", "scenario must be a JSON object"),
    "missing-key": ({"equation": {"class": "EXP"}}, "scenario.equation",
                    "missing required key 'coefficients'"),
    "equation-not-an-object": ({"equation": ["EXP"]}, "scenario.equation",
                               "equation must be an object"),
    "non-string-class": ({"equation": {"class": 3, "coefficients": ["-1"]}},
                         "scenario.equation.class", "expected a string, got int"),
    "empty-coefficients": ({"equation": {"class": "EXP", "coefficients": []}},
                           "scenario.equation.coefficients",
                           "coefficients must be a nonempty list of expression strings"),
    "non-string-coefficient": ({"equation": {"class": "EXP", "coefficients": [-1]}},
                               "scenario.equation.coefficients[0]",
                               "expected a string, got int"),
    "subgroup-not-an-object": (
        {"equation": {"class": "EXP", "coefficients": ["-1"]}, "subgroup": "MU_N"},
        "scenario.subgroup", "subgroup must be an object"),
    "unknown-kind": (
        {"equation": {"class": "EXP", "coefficients": ["-1"]}, "subgroup": {"kind": "SL2"}},
        "scenario.subgroup.kind",
        "subgroup kind must be one of ['DIAGONAL', 'FINITE_LIST', 'FULL', 'MU_N', "
        "'SO2', 'TRIVIAL']"),
    "non-integer-order": (
        {"equation": {"class": "EXP", "coefficients": ["-1"]},
         "subgroup": {"kind": "MU_N", "order": "3"}},
        "scenario.subgroup.order", "expected an integer, got str"),
    "order-zero": (
        {"equation": {"class": "EXP", "coefficients": ["-1"]},
         "subgroup": {"kind": "MU_N", "order": 0}},
        "scenario.subgroup.order", "root-of-unity order must be between 1 and 1000"),
    "order-outside-mu-n": (
        {"equation": {"class": "EXP", "coefficients": ["-1"]},
         "subgroup": {"kind": "FULL", "order": 2}},
        "scenario.subgroup.order", "order is only meaningful for MU_N"),
    "matrices-outside-finite-list": (
        {"equation": {"class": "EXP", "coefficients": ["-1"]},
         "subgroup": {"kind": "FULL", "matrices": [[["1"]]]}},
        "scenario.subgroup.matrices", "matrices are only meaningful for FINITE_LIST"),
    "empty-matrix-list": (
        {"equation": {"class": "EXP", "coefficients": ["-1"]},
         "subgroup": {"kind": "FINITE_LIST", "matrices": []}},
        "scenario.subgroup.matrices", "expected a nonempty list of matrices"),
    "empty-matrix": (
        {"equation": {"class": "EXP", "coefficients": ["-1"]}, "cocycle": []},
        "scenario.cocycle", "expected a nonempty list of rows"),
    "bad-row": (
        {"equation": {"class": "EXP", "coefficients": ["-1"]}, "cocycle": ["-1"]},
        "scenario.cocycle[0]", "row must be a nonempty list"),
    "non-square": (
        {"equation": {"class": "CIRCLE", "coefficients": ["1", "0"]},
         "cocycle": [["-1", "0"]]},
        "scenario.cocycle", "matrix must be square"),
}


@pytest.mark.parametrize("raw,location,message", SCENARIO_REFUSALS.values(),
                         ids=SCENARIO_REFUSALS.keys())
def test_invalid_scenario_exits_2_at_its_location(capsys, tmp_path, raw, location, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, out, err = run(capsys, "all", str(bad))
    assert (code, out) == (2, "")
    assert err == f"scenario error at {location}: {message}\n"


def test_invalid_json_exits_2_at_the_path(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    # truncated JSON, then bytes that are not UTF-8
    for content in (b'{"equation": ', b'{"equation": "\xff"}'):
        bad.write_bytes(content)
        code, out, err = run(capsys, "build", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith(f"scenario error at {bad}: invalid JSON: ")


def test_twist_without_cocycle(capsys):
    code, out, err = run(capsys, "twist", f"{SCENARIOS}/exp.json")
    assert (code, out) == (2, "")
    assert err == "scenario error at scenario: twist needs a cocycle entry\n"


def test_twist_by_a_non_cocycle_prints_fail(capsys, tmp_path):
    # 2 lies in GL1, but 2 * conj(2) is not 1
    scn = tmp_path / "double.json"
    scn.write_text(json.dumps({
        "equation": {"class": "EXP", "coefficients": ["-1"]}, "cocycle": [["2"]]
    }))
    code, out, err = run(capsys, "twist", str(scn))
    assert (code, err) == (1, "")
    assert out == (
        "twist: EXP equation with coefficients ['-1']\n"
        "  [FAIL] matrix is a cocycle\n"
        "result: FAILED\n"
    )


def test_correspond_without_subgroup(capsys, tmp_path):
    scn = tmp_path / "plain.json"
    scn.write_text(json.dumps({
        "equation": {"class": "EXP", "coefficients": ["-1"]}
    }))
    code, _, err = run(capsys, "correspond", str(scn))
    assert code == 2
    assert "subgroup" in err


# -- schema validation directly -------------------------------------------------------


def test_schema_rejects_unknown_top_key():
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict({"equation": {"class": "EXP", "coefficients": ["-1"]}, "seed": 3})
    assert exc.value.location == "scenario"


def test_schema_rejects_ragged_cocycle():
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict({
            "equation": {"class": "CIRCLE", "coefficients": ["1", "0"]},
            "cocycle": [["1", "0"], ["0"]],
        })
    assert "cocycle" in (exc.value.location or "")


def test_schema_rejects_order_outside_mu_n():
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict({
            "equation": {"class": "EXP", "coefficients": ["-1"]},
            "subgroup": {"kind": "FULL", "order": 2},
        })
    assert exc.value.location == "scenario.subgroup.order"


@pytest.mark.parametrize("order", [1001, 5000])
def test_schema_bounds_the_mu_n_order(order):
    # the fixed field of MU_N(q) has a window of degree q, so a large order
    # ran for seconds before it was refused
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict({
            "equation": {"class": "EXP", "coefficients": ["-1"]},
            "subgroup": {"kind": "MU_N", "order": order},
        })
    assert exc.value.location == "scenario.subgroup.order"
    assert str(exc.value) == "root-of-unity order must be between 1 and 1000"


def test_schema_defaults():
    scn = scenario_from_dict({"equation": {"class": "EXP", "coefficients": ["-1"]}})
    assert scn.base_var == "t"
    assert scn.subgroup is None and scn.cocycle is None


def test_scenario_made_positionally_parses_its_strings():
    """`Scenario` keeps its positional fields; made without the parsed
    pairs it parses its strings, and equals the loader's scenario."""
    scn = Scenario("RADICAL", ("-1/2 * 1/t",), "t", "t")
    loaded = scenario_from_dict(
        {"equation": {"class": "RADICAL", "coefficients": ["-1/2 * 1/t"], "radical_base": "t"}}
    )
    assert scn == loaded
    assert scn.parsed_coefficients == loaded.parsed_coefficients
    assert scn.parsed_radical_base == loaded.parsed_radical_base
    assert scn.radical_base == "t"
