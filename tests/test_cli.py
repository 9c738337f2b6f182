import json
import sys

from click.testing import CliRunner

from exlift.cli import main


def test_lift_report_shows_the_orbit_step(tmp_path):
    spec = tmp_path / "m2.json"
    spec.write_text(json.dumps({
        "ring": {"type": "matrix", "base": {"type": "zmod", "n": 2}, "k": 2},
        "ideal": {"generators": []}}))
    res = CliRunner().invoke(main, [
        "lift", "--spec", str(spec), "--element", "[[0, 1], [1, 1]]",
        "--format", "machine"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    # the least unit y1 differs from x by a member of W(M_2(Z/2)); the orbit
    # word is that member's fixed word: 4 generator ops + 6 Whitehead ops
    assert report["orbit"] == {"m": 2, "y1": [[0, 1], [1, 0]],
                               "word_len": 10}
    assert report["lifted"] and report["oracle_confirmed"]


def _m2_spec(tmp_path):
    spec = tmp_path / "m2.json"
    spec.write_text(json.dumps({
        "ring": {"type": "matrix", "base": {"type": "zmod", "n": 2}, "k": 2},
        "ideal": {"generators": []}}))
    return str(spec)


def test_no_command_takes_truncation(tmp_path, monkeypatch):
    # check and index report V(R) = N^t exactly and the lift reads nothing
    # that depends on a truncation: -K is a usage error everywhere, no
    # report names a truncation, and no command sets one
    from exlift import lifting
    seen = []
    real = lifting.effective_truncation

    def spy(ring, guards=lifting.DEFAULT):
        seen.append(guards.truncation)
        return real(ring, guards)

    monkeypatch.setattr(lifting, "effective_truncation", spy)
    spec = _m2_spec(tmp_path)
    runs = {"check": ["check", "--spec", spec],
            "index": ["index", "--spec", spec,
                      "--element", "[[0, 1], [1, 1]]"],
            "lift": ["lift", "--spec", spec,
                     "--element", "[[0, 1], [1, 1]]"]}
    for name, args in runs.items():
        res = CliRunner().invoke(main, args + ["-K", "1"])
        assert res.exit_code == 2 and "No such option" in res.output, \
            (name, res.output)
        help_text = CliRunner().invoke(main, [name, "--help"]).output
        assert "--truncation" not in help_text and "-K" not in help_text
        seen.clear()
        res = CliRunner().invoke(main, args + ["--format", "machine"])
        assert res.exit_code == 0, (name, res.output)
        report = json.loads(res.stdout)
        assert "truncation" not in report, (name, report)
        assert set(seen) <= {lifting.DEFAULT.truncation}, (name, seen)
    assert report["lifted"] and seen == []


def test_lift_needs_neither_index_nor_zero_test(tmp_path, monkeypatch):
    # the certificate proves index(x) = 0 by itself, so lift computes neither
    from exlift import ktheory, lifting

    def refuse(*args, **kwargs):
        raise AssertionError("lift must not compute the index or test it")

    originals = (ktheory.index, ktheory.k0_zero_test)
    for name, mod in list(sys.modules.items()):
        if name == "exlift" or name.startswith("exlift."):
            for attr, val in list(vars(mod).items()):
                if any(val is f for f in originals):
                    monkeypatch.setattr(mod, attr, refuse)
    monkeypatch.setattr(lifting, "index", refuse, raising=False)
    monkeypatch.setattr(lifting, "k0_zero_test", refuse, raising=False)
    res = CliRunner().invoke(main, [
        "lift", "--spec", _m2_spec(tmp_path), "--element", "[[0, 1], [1, 1]]",
        "--format", "machine"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["lifted"] and report["certificate_checks"] > 0
    assert "zero_test" not in report


def _check(tmp_path, ring_obj, gens):
    res = CliRunner().invoke(main, ["check", "--spec",
                                    _zmod_spec(tmp_path, ring_obj, gens),
                                    "--format", "machine"])
    assert res.exit_code == 0, res.output
    return json.loads(res.output)


def test_check_reports_v_exactly(tmp_path):
    # V(R) = N^t, one copy of N per simple component of R/J(R), and V(I) is
    # N^(v_ideal_components); nothing is truncated
    z2, z3 = {"type": "zmod", "n": 2}, {"type": "zmod", "n": 3}
    m2z3 = {"type": "matrix", "base": z3, "k": 2}
    report = _check(tmp_path, m2z3, [])
    for verdict in ("exchange_ring", "exchange_ideal", "separative_ideal",
                    "refinement_wrt_ideal"):
        assert report[verdict] is True, verdict
    assert report["decision_path"] == "theorem"
    assert report["v_monoid_components"] == [{"simple_size": 9, "degree": 2}]
    assert report["v_ideal_components"] == []
    for gone in ("truncation", "v_monoid", "v_ideal_classes"):
        assert gone not in report, gone
    assert _check(tmp_path, m2z3, [[[1, 0], [0, 0]]])[
        "v_ideal_components"] == [0]
    # in Z/2 x M_2(Z/2) the ideal 0 x M_2(Z/2) covers exactly
    # the component of simple size 4 and degree 2
    product = {"type": "product", "left": z2,
               "right": {"type": "matrix", "base": z2, "k": 2}}
    report = _check(tmp_path, product, [[0, [[1, 0], [0, 1]]]])
    components = report["v_monoid_components"]
    assert sorted(components, key=lambda c: c["simple_size"]) == [
        {"simple_size": 2, "degree": 1}, {"simple_size": 4, "degree": 2}]
    assert [components[i] for i in report["v_ideal_components"]] == [
        {"simple_size": 4, "degree": 2}]
    assert report["ideal_size"] == 16


def test_check_refuses_bad_order_ideal_indices(tmp_path):
    # the order ideal indexes the monoid table, so it is checked like the
    # table, and it must be an order ideal before any checker runs on it
    spec = tmp_path / "monoid.json"
    two = {"size": 2, "zero": 0, "op_table": [0, 1, 1, 1]}
    # {0, 1, T}: 1 + 1 overflows to T
    three = {"size": 3, "zero": 0, "op_table": [0, 1, 2, 1, 2, 2, 2, 2, 2],
             "overflow": 2}
    # {0, 1, 2, T}: 1 + 1 = 2, larger sums overflow to T
    four = {"size": 4, "zero": 0,
            "op_table": [0, 1, 2, 3, 1, 2, 3, 3, 2, 3, 3, 3, 3, 3, 3, 3],
            "overflow": 3}
    for monoid, subset in ((two, [0, 7]), (two, [0, -1]), (two, [0, True]),
                           (two, [0, 1.0]),
                           (three, [1]),         # misses the identity
                           (three, [0, 2]),      # holds the overflow
                           (four, [0, 2])):      # 1 <= 2 but 1 is missing
        spec.write_text(json.dumps({"monoid": monoid,
                                    "order_ideal": subset}))
        res = CliRunner().invoke(main, ["check", "--spec", str(spec),
                                        "--format", "machine"])
        assert res.exit_code == 7, (subset, res.output, res.exception)
    spec.write_text(json.dumps({
        "monoid": {"size": 2, "zero": 0, "op_table": [0, 1, 1, 1]},
        "order_ideal": [0, 1]}))
    res = CliRunner().invoke(main, ["check", "--spec", str(spec),
                                    "--format", "machine"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["refinement_wrt_order_ideal"] is True


def _zmod_spec(tmp_path, ring_obj, gens):
    spec = tmp_path / "ring.json"
    spec.write_text(json.dumps({"ring": ring_obj,
                                "ideal": {"generators": gens}}))
    return str(spec)


def test_element_must_be_canonical(tmp_path):
    # one strict decoder: 5 and true name no element of Z/4, though 5 = 1
    # mod 4 and JSON true is the int 1 to Python
    spec = _zmod_spec(tmp_path, {"type": "zmod", "n": 4}, [2])
    for element in ("5", "-3", "true", "1.0"):
        res = CliRunner().invoke(main, ["index", "--spec", spec,
                                        "--element", element])
        assert res.exit_code == 7, (element, res.output, res.exception)
    res = CliRunner().invoke(main, ["index", "--spec", spec, "--element", "1",
                                    "--format", "machine"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["element"] == 1
    for ideal in ("[6]", "[true]"):
        res = CliRunner().invoke(main, ["index", "--spec", spec, "--ideal",
                                        ideal, "--element", "1"])
        assert res.exit_code == 7, (ideal, res.output, res.exception)


def test_quotient_spec_generator_must_be_canonical(tmp_path):
    # quotient(zmod(16), [4]) is a ring; its generator shifted by n is not
    # a descriptor of Z/16, and the spec is refused as --element 20 would be
    base = {"type": "zmod", "n": 16}
    for gen, code in ((4, 0), (20, 7), (-12, 7)):
        ring = {"type": "quotient", "base": base,
                "ideal": {"generators": [gen]}}
        res = CliRunner().invoke(main, ["check", "--spec",
                                        _zmod_spec(tmp_path, ring, []),
                                        "--format", "machine"])
        assert res.exit_code == code, (gen, res.output, res.exception)
    # a quotient element is named by the least member of its coset only
    ring = {"type": "quotient", "base": base, "ideal": {"generators": [4]}}
    spec = _zmod_spec(tmp_path, ring, [])
    for element, code in (("1", 0), ("5", 7), ("13", 7)):
        res = CliRunner().invoke(main, ["index", "--spec", spec,
                                        "--element", element])
        assert res.exit_code == code, (element, res.output, res.exception)


def test_unreadable_certificate_and_spec_files_exit_7(tmp_path):
    missing = str(tmp_path / "missing.json")
    latin1 = tmp_path / "latin1.json"          # not UTF-8
    latin1.write_bytes(b'{"ring": {"type": "zmod", "n": 4}, "x": "\xe9"}')
    for args in (["verify", missing], ["verify", str(latin1)],
                 ["check", "--spec", missing],
                 ["check", "--spec", str(latin1)],
                 ["lift", "--spec", str(latin1), "--element", "1"]):
        res = CliRunner().invoke(main, args + ["--format", "machine"])
        assert res.exit_code == 7, (args, res.output, res.exception)
        assert isinstance(res.exception, SystemExit), args


def test_verify_report_echoes_the_claim(tmp_path):
    # the claim a certificate proves: recipe, ideal generators, x, y and m
    ring = {"type": "quotient", "base": {"type": "zmod", "n": 16},
            "ideal": {"generators": [4]}}
    spec = _zmod_spec(tmp_path, ring, [2])
    cert = str(tmp_path / "cert.json")
    res = CliRunner().invoke(main, ["lift", "--spec", spec, "--element", "3",
                                    "--cert-out", cert, "--format", "machine"])
    assert res.exit_code == 0, res.output
    res = CliRunner().invoke(main, ["verify", cert, "--format", "machine"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["ok"] and report["claim"] == {
        "ring": ring, "ideal_generators": [2], "x": 3, "y": 1, "m": 2}


def test_version_1_certificate_fails_verify(tmp_path):
    import certificates_v1
    cert = str(tmp_path / "v1.json")
    certificates_v1.main(cert)
    res = CliRunner().invoke(main, ["verify", cert, "--format", "machine"])
    assert res.exit_code == 6, (res.output, res.exception)
    report = json.loads(res.stdout)
    assert [c["check"] for c in report["checks_failed"]] == ["format"]
    assert report["claim"] is None


def test_non_integer_guard_variable_exits_7(tmp_path):
    spec = _zmod_spec(tmp_path, {"type": "zmod", "n": 4}, [2])
    for args in (["check", "--spec", spec],
                 ["lift", "--spec", spec, "--element", "3"],
                 ["corpus", "--lifts-per-pair", "0"]):
        res = CliRunner().invoke(main, args, env={"EXLIFT_GUARD": "abc"})
        assert res.exit_code == 7, (args, res.output, res.exception)
        assert isinstance(res.exception, SystemExit), args
        assert res.output == ("error: InvalidSpec: EXLIFT_GUARD must be an "
                              "integer, got 'abc'\n"), res.output


def test_unwritable_output_exits_1_with_one_line(tmp_path):
    spec = _zmod_spec(tmp_path, {"type": "zmod", "n": 4}, [2])
    missing = str(tmp_path / "missing" / "out.json")
    for args in (["check", "--spec", spec, "--out", missing],
                 ["lift", "--spec", spec, "--element", "3",
                  "--cert-out", missing]):
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 1, (args, res.output, res.exception)
        assert isinstance(res.exception, SystemExit), args
        assert res.output.startswith("error: FileNotFoundError: "), args
        assert res.output.count("\n") == 1, res.output


def test_negative_lifts_per_pair_is_a_usage_error():
    # a corpus run that lifts nothing must not pass for one that lifted
    res = CliRunner().invoke(main, ["corpus", "--lifts-per-pair", "-1"])
    assert res.exit_code == 2, (res.output, res.exception)
    assert "lifts-per-pair" in res.output


def test_index_rank_vectors_agree_on_default_pairs(corpus_pairs):
    # every unit of R/I lifts on a finite ring, so every index vanishes:
    # its two rank vectors in V(R) = N^t are equal
    from exlift.cli import _index_report
    from exlift.ktheory import fredholm_elements
    checked = 0
    for name, ring, ideal, _ in corpus_pairs:
        for x in fredholm_elements(ring, ideal):
            report = _index_report(ring, ideal, x)
            assert report["index_pos_rank"] == report["index_neg_rank"], \
                (name, x, report)
            assert report["zero_test"] == {"zero": True}, (name, x)
            checked += 1
    assert checked == 192
