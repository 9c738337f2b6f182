import json

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
    assert report["orbit"] == {"m": 2, "k": 1, "y1": [[[[0, 1], [1, 0]]]],
                               "word_len": 10}
    assert report["lifted"] and report["oracle_confirmed"]
