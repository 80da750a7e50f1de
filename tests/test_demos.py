"""The demos print square classes, local symbols, Euler coefficients,
decomposition checks and class numbers; their stdout is pinned here by
sha256, so a changed digest is a changed demo output."""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfmass

ROOT = Path(__file__).resolve().parent.parent

DEMO_SHA256 = {
    "01_squareclasses_and_symbols.py": "9250a8d10aee7a1eada17c0b2a709933445783f897f11995370eddd124c1baa2",
    "02_forms_reduction_automorphisms.py": "97c65f9bb80f99ef592a09b17b8ba434b755295a057459d095e0316fcbde3c91",
    "03_local_genera_and_masses.py": "7782922774433bfff328711a5f1f1cc754ea071eec4be83f5470aed8d58219b0",
    "04_euler_factors_and_decomposition.py": "7a4f59630d3c73b6d8654119e4889bfc77dfc1bebbb80f0f32329e34632698ba",
    "05_class_numbers.py": "bbaff9f044f631f61f4f6392262f5a75a2824517d884804b457c10891a590c5e",
}


def test_every_demo_is_pinned():
    assert sorted(DEMO_SHA256) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", sorted(DEMO_SHA256))
def test_demo_output_is_byte_identical_to_golden(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(qfmass.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], env=env, capture_output=True, check=True, timeout=120
    )
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_SHA256[demo]
