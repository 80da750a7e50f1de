"""`tools/bench.py` folds `perfbench/run.py`'s output into its record and reads
the peak-RSS bounds from the CI workflow.  No test here starts a process."""
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the shape of `perfbench/run.py --trace 0` stdout: metric lines, the record
# line, then the result
RUN_STDOUT = "\n".join(
    [
        "classify-large  setup_s                                    0.175 s",
        "classify-large  cases_per_s                                249.1 1/s",
        json.dumps(
            {
                "record": {
                    "workload": "classify-large",
                    "rounds": 5,
                    "raw": {"setup_s": 0.19, "cases_per_s": 231.0, "case_ms_p50": 3.2},
                    "ref_ms_median": 10.8,
                    "info": {"failed_ratio": {"value": 0.0, "unit": "1"}},
                }
            }
        ),
        json.dumps(
            {
                "correct": True,
                "attempted": 65,
                "failed": 0,
                "metrics": {
                    "setup_s": {"value": 0.175, "unit": "s"},
                    "cases_per_s": {"value": 249.1, "unit": "1/s"},
                    "case_ms_p50": {"value": 2.94, "unit": "ms"},
                },
            }
        ),
    ]
) + "\n"


def test_fold_run_keeps_normalized_raw_and_reference_figures():
    assert _load_bench().fold_run(RUN_STDOUT) == {
        "correct": True,
        "attempted": 65,
        "failed": 0,
        "rounds": 5,
        "metrics": {"setup_s": 0.175, "cases_per_s": 249.1, "case_ms_p50": 2.94},
        "raw": {"setup_s": 0.19, "cases_per_s": 231.0, "case_ms_p50": 3.2},
        "ref_ms_median": 10.8,
    }


def test_peak_rss_lines_are_read_from_the_workflow():
    bench = _load_bench()
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    lines = bench.peak_rss_lines(workflow)
    assert len(lines) == workflow.count("python tools/peak_rss.py ") >= 1
    for bound, seconds, *args in lines:
        assert float(bound) > 0 and float(seconds) > 0 and args[0] in ("classify", "verify"), args
    assert ["240", "10", "classify", "--det", "999999"] in lines
