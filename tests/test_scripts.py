import hashlib
import importlib.util
import sys
from pathlib import Path

from helpers import corrupted_data, corrupted_fixtures, sample_specs, with_assignment

from nwfree.exactpoly import Poly
from nwfree.liealg import R, sym
from nwfree.modfam import (
    MAX_WINDOW,
    MODULE_VARIABLES,
    ActionData,
    act,
    actions_of,
    affvir,
    generators,
    mhb,
    module_variables,
)
from nwfree.specdsl import _document, format_actions, format_spec
from nwfree.verify import MAX_TEST_DEGREE, format_report, verify_module

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_families_window_three(capsys):
    run_families = load_script("run_families")
    assert run_families.main(["--window", "3", "--test-degree", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(run_families.standard_grid())
    assert all(" ok " in line for line in lines)


def test_irreducibility_survey_runs_with_and_without_evidence(capsys):
    survey = load_script("irreducibility_survey")
    assert survey.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(survey.survey_grid()) == 15
    assert not any("oracle disagrees" in line for line in lines)
    assert survey.main(["--evidence"]) == 0
    assert "oracle disagrees" not in capsys.readouterr().out


GOLDEN_SURVEY = Path(__file__).resolve().parent / "golden" / "irreducibility_survey_evidence.txt"


def test_irreducibility_survey_evidence_matches_golden(capsys):
    # verdicts, certificates and witnesses, byte for byte; regenerate with
    # python3 scripts/irreducibility_survey.py --evidence > tests/golden/...
    survey = load_script("irreducibility_survey")
    assert survey.main(["--evidence"]) == 0
    assert capsys.readouterr().out == GOLDEN_SURVEY.read_text(encoding="utf-8")


GOLDEN_REPORTS = Path(__file__).resolve().parent / "golden" / "verify_report_digests.txt"


def verify_report_digests():
    """One `sha256  name` line per spec of the standard grid at window 2:
    the digest of format_report(verify_module(spec, 2, 3))."""
    run_families = load_script("run_families")
    lines = []
    for name, spec in run_families.standard_grid(2):
        text = format_report(verify_module(spec, 2, 3))
        lines.append(f"{hashlib.sha256(text.encode()).hexdigest()}  {name}\n")
    return "".join(lines)


def test_verify_reports_match_golden_digests():
    # every report's text, byte for byte; regenerate with
    # PYTHONPATH=src python3 tests/test_scripts.py > tests/golden/verify_report_digests.txt
    assert verify_report_digests() == GOLDEN_REPORTS.read_text(encoding="utf-8")


GOLDEN_FAIL_REPORTS = Path(__file__).resolve().parent / "golden" / "verify_fail_report_digests.txt"


def fail_and_skip_cases():
    """(name, spec or data, window, test degree) of the reports with FAIL or SKIP lines.

    The corrupted fixtures, each sample spec with its algebra's scalar slot
    bumped (r on H4, k on AffineH4, dvir@1 on Vir00 and AffineVirasoroH4,
    as perfbench's corrupted verify requests do) at window 1 and test
    degree 3, the last four sample specs (MTildeAlphaBeta, MTildeF, Vir00,
    AffVir) at window 1, where brackets that leave the window are skipped,
    and the largest report: AffVir at MAX_WINDOW and MAX_TEST_DEGREE with
    dvir@1 and r each raised by 1 (140,355 checked entries, 54 FAIL pairs).
    """
    for anchor, data in corrupted_fixtures():
        yield f"fixture {anchor}", data, max(data.window, 1), 2
    for name, spec in sample_specs():
        yield f"corrupted {name}", corrupted_data(spec), 1, 3
    for name, spec in sample_specs()[6:]:
        yield f"{name} w1", spec, 1, 2
    yield "corrupted AffVir w8 d8", largest_fail_data(), MAX_WINDOW, MAX_TEST_DEGREE


def fail_and_skip_reports():
    """(name, report) for the cases of fail_and_skip_cases()."""
    for name, target, window, test_degree in fail_and_skip_cases():
        yield name, verify_module(target, window, test_degree)


def largest_fail_data():
    data = actions_of(affvir(mhb(1, 0, 1), alpha=2, lam=3, window=MAX_WINDOW))
    one = Poly.one(MODULE_VARIABLES[data.algebra])
    for slot in (sym("dvir", 1), R):
        data = with_assignment(data, slot, data.value(slot) + one)
    return data


def verify_fail_report_digests():
    """One `text-sha256  reprs-sha256  name` line per report of
    fail_and_skip_reports(): the digests of format_report(report) and of
    its entry reprs, one per line."""
    lines = []
    for name, report in fail_and_skip_reports():
        text = format_report(report)
        reprs = "\n".join(map(repr, report.entries))
        digests = [hashlib.sha256(t.encode()).hexdigest() for t in (text, reprs)]
        lines.append(f"{digests[0]}  {digests[1]}  {name}\n")
    return "".join(lines)


def test_fail_and_skip_reports_match_golden_digests():
    # FAIL and SKIP lines and entry reprs, byte for byte; regenerate with
    # PYTHONPATH=src python3 tests/test_scripts.py --fail > tests/golden/verify_fail_report_digests.txt
    reports = [report for _, report in fail_and_skip_reports()]
    assert sum(not r.passed for r in reports) >= len(corrupted_fixtures()) + len(sample_specs())
    assert any(r.skipped and not r.passed for r in reports)
    assert any(r.skipped and r.passed for r in reports)
    assert verify_fail_report_digests() == GOLDEN_FAIL_REPORTS.read_text(encoding="utf-8")


def _report_bytes(target, window, test_degree):
    report = verify_module(target, window, test_degree)
    return format_report(report), "\n".join(map(repr, report.entries))


def test_a_shared_spec_verifies_byte_for_byte():
    """The golden verify cases, each read from its document through the
    document table: a table hit gives the report text and entry reprs of a
    fresh read, also once `on_one`, `act` and a verify at another window
    (at test degree 1 only, where the spec's window is 1) have filled the
    shared spec's form table.  `_document` is called
    directly, so documents past the table's length bound are shared too."""
    run_families = load_script("run_families")
    cases = [(name, spec, 2, 3) for name, spec in run_families.standard_grid(2)]
    cases += list(fail_and_skip_cases())
    assert len(cases) == 14 + 25
    for name, target, window, test_degree in cases:
        write = format_actions if isinstance(target, ActionData) else format_spec
        text = write(target)
        _document.cache_clear()
        fresh = _document(text)
        want = _report_bytes(fresh, window, test_degree)
        shared = _document(text)
        assert shared is fresh, name
        assert _report_bytes(shared, window, test_degree) == want, name
        one = Poly.one(module_variables(shared))
        for x in generators(shared):
            shared.on_one(x)
            act(shared, x, one)
        limit = shared.window  # 0 on H4 and None on Vir00, which take any window
        _report_bytes(shared, window - 1 if window > 1 else 2 if not limit or limit > 1 else 1, 1)
        again = _document(text)
        assert again is fresh, name
        assert _report_bytes(again, window, test_degree) == want, name
    _document.cache_clear()


if __name__ == "__main__":
    if sys.argv[1:] == ["--fail"]:
        sys.stdout.write(verify_fail_report_digests())
    else:
        sys.stdout.write(verify_report_digests())
