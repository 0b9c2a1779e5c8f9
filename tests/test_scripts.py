import importlib.util
from pathlib import Path

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
