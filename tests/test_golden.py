"""Byte-for-byte regression of CLI output against files under tests/golden/.

Each case is a CLI invocation whose standard output was captured once and
committed; any change to a sweep CSV or a schedule table shows up here.
The cases cover the reduced/full/auto engines, the three modes, one- and
two-sided marking, right-only marking (the ``sweep_mirrored_*`` files) and
explicit vertex ids.
"""

from pathlib import Path

import pytest

from robustwalk.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "sweep_one_side_reduced.csv": "sweep --nl 8 --nr 6 --ml 2 --hmax 40 --engine reduced",
    "sweep_one_side_full.csv": "sweep --nl 8 --nr 6 --ml 2 --hmax 40 --engine full",
    "sweep_two_sides_reduced_eps05.csv": "sweep --nl 8 --nr 6 --ml 2 --mr 1 --epsilon 0.5 --hmax 40 --engine reduced",
    "sweep_two_sides_full_eps05.csv": "sweep --nl 8 --nr 6 --ml 2 --mr 1 --epsilon 0.5 --hmax 40 --engine full",
    "sweep_mirrored_reduced.csv": "sweep --nl 7 --nr 5 --ml 0 --mr 2 --hmax 40 --engine reduced",
    "sweep_mirrored_full.csv": "sweep --nl 7 --nr 5 --ml 0 --mr 2 --hmax 40 --engine full",
    "sweep_ids_auto.csv": "sweep --nl 6 --nr 5 --ml 1,4 --mr 0,3 --hmax 40",
    "sweep_ids_robust_full.csv": "sweep --nl 9 --nr 4 --ml 0,2, --epsilon 0.5 --hmax 30 --mode robust --engine full",
    "sweep_figc_robust_reduced.csv": "sweep --nl 600 --nr 1000 --ml 10 --mr 5 --hmax 40 --mode robust --engine reduced",
    "sweep_oscillatory_full.csv": "sweep --nl 8 --nr 6 --ml 2 --hmax 40 --mode oscillatory --engine full",
    "sweep_auto_picks_reduced.csv": "sweep --nl 200 --nr 100 --ml 3 --mr 2 --hmax 40 --mode both",
    "sweep_short_oscillatory_reduced.csv": "sweep --nl 5 --nr 4 --ml 1 --hmax 2 --mode oscillatory --engine reduced",
    "schedule_h7.txt": "schedule --h 7",
    "schedule_h8.txt": "schedule --h 8 --epsilon 0.3",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    code = main(CASES[name].split())
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")
