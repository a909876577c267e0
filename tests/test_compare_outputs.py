import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"


def _script():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_lines_parse_after_progress_dots_and_refuse_garbage():
    # Under pytest -s -q a progress dot precedes a test's first printed
    # line; a check line that does not parse is reported, not dropped.
    text = ("       M=0: roots ['4.00951304']\n"
            ".[PASS] c7 quadrature vs independent series: 1.318e-16 "
            "(<= 1.000e-10)\n"
            "[FAIL] c2 runtime (64^3): 3.1e+00 (<= 6.000e+01)\n"
            "[PASS] c6 k_z = 0 spectrum empty\n"
            "..[PASS] c8 k marginal: not-a-number (<= 1.000e-10)\n"
            "[FAIL] c9 trace identity: 8.882e-16\n")
    found, unparsed = _script().parse_checks(text)
    assert found == {"c7 quadrature vs independent series": 1.318e-16,
                     "c6 k_z = 0 spectrum empty": None}
    assert unparsed == [
        "..[PASS] c8 k marginal: not-a-number (<= 1.000e-10)",
        "[FAIL] c9 trace identity: 8.882e-16"]
