import hashlib
import importlib.util
import sys
from pathlib import Path

from nwfree.verify import format_report, verify_module

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


if __name__ == "__main__":
    sys.stdout.write(verify_report_digests())
