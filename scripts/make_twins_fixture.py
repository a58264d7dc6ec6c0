"""Regenerate the shipped synthetic twin-records fixture, with the `sd2` of
this checkout: ``python3 scripts/make_twins_fixture.py``."""
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from sd2.datagen import write_twins_fixture

if __name__ == "__main__":
    out = SRC / "sd2" / "data" / "twins_fixture.csv"
    write_twins_fixture(out)
    print(f"wrote {out}")
