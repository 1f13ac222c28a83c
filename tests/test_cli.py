import io
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustwalk import cli
from robustwalk.cli import MAX_SIDE, MAX_STEPS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_fig_instance(capsys):
    code, out, _ = run_cli(capsys, "bound", "--nl", "600", "--nr", "1000", "--ml", "10", "--epsilon", "0.1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "threshold 15.2869686919"
    assert lines[1] == "bound 16"


def test_bound_unknown(capsys):
    code, out, _ = run_cli(capsys, "bound", "--unknown", "--nl", "100", "--nr", "100", "--epsilon", "1")
    assert code == 0
    assert out.strip().splitlines()[1] == "bound 8"
    # unknown counts bound like one marked vertex per side, whatever --ml/--mr say
    for flags in (
        ["--unknown", "--nl", "30", "--nr", "500"],
        ["--unknown", "--nl", "500", "--nr", "30", "--ml", "7"],
        ["--nl", "30", "--nr", "500", "--ml", "1", "--mr", "1"],
    ):
        code, out, _ = run_cli(capsys, "bound", *flags, "--epsilon", "0.1")
        assert (code, out.splitlines()) == (0, ["threshold 42.242926101", "bound 43"]), flags


def test_bound_without_counts_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "bound", "--nl", "10", "--nr", "10", "--ml", "0", "--mr", "0")
    assert code == 2
    assert "error" in err


def test_schedule_table(capsys):
    code, out, _ = run_cli(capsys, "schedule", "--h", "5", "--epsilon", "0.1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "k,alpha,beta"
    assert len(lines) == 7
    first = lines[2].split(",")
    assert first == ["1", "0", "-3.63751380812"]


def test_schedule_rejects_small_h(capsys):
    code, _, err = run_cli(capsys, "schedule", "--h", "2")
    assert code == 2


def test_sweep_rejects_zero_hmax(capsys):
    code, _, err = run_cli(capsys, "sweep", "--nl", "5", "--nr", "4", "--ml", "1", "--hmax", "0")
    assert code == 2


def test_sweep_requires_marked_vertices(capsys):
    code, _, err = run_cli(capsys, "sweep", "--nl", "5", "--nr", "4", "--hmax", "5")
    assert code == 2


def test_sweep_header_and_columns(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--nl", "5", "--nr", "4", "--ml", "1", "--hmax", "4", "--engine", "reduced"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "# convention=appendix-c"
    assert lines[2] == "h,p_robust,p_oscillatory,p_closed_form,bound_h,floor"
    row1 = lines[3].split(",")
    assert row1[0] == "1" and row1[1] == "" and row1[3] == ""  # no robust/closed form below h=3
    row3 = lines[5].split(",")
    assert row3[1] != "" and row3[2] != "" and row3[3] != ""
    assert row3[4] == lines[3].split(",")[4]  # bound repeated on every row


def test_sweep_oscillatory_mode_leaves_other_columns_empty(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--nl", "5", "--nr", "4", "--ml", "1", "--hmax", "4",
        "--mode", "oscillatory", "--engine", "reduced",
    )
    assert code == 0
    for line in out.strip().splitlines()[3:]:
        parts = line.split(",")
        assert parts[1] == "" and parts[3] == "" and parts[2] != ""


def test_sweep_engines_agree_after_rounding(capsys):
    base = ["sweep", "--nl", "5", "--nr", "4", "--ml", "1", "--hmax", "8"]
    _, full_out, _ = run_cli(capsys, *base, "--engine", "full")
    _, red_out, _ = run_cli(capsys, *base, "--engine", "reduced")

    def probability_columns(text):
        rows = []
        for line in text.strip().splitlines():
            if line.startswith("#") or line.startswith("h,"):
                continue
            parts = line.split(",")
            rows.append(
                tuple(round(float(p), 9) if p else None for p in parts[1:4])
            )
        return rows

    assert probability_columns(full_out) == probability_columns(red_out)


def test_sweep_is_deterministic(capsys):
    args = ["sweep", "--nl", "6", "--nr", "5", "--ml", "2", "--mr", "1", "--hmax", "6"]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_sweep_auto_engine_picks_full_for_small_instances(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--nl", "5", "--nr", "4", "--ml", "1", "--hmax", "3")
    assert code == 0
    assert "engine=full" in out.splitlines()[0]
    code, out, _ = run_cli(capsys, "sweep", "--nl", "500", "--nr", "400", "--ml", "1", "--hmax", "3")
    assert code == 0
    assert "engine=reduced" in out.splitlines()[0]


def test_sweep_explicit_marked_ids(capsys):
    code_ids, out_ids, _ = run_cli(
        capsys, "sweep", "--nl", "5", "--nr", "4", "--ml", "1,3", "--hmax", "5", "--engine", "full"
    )
    code_cnt, out_cnt, _ = run_cli(
        capsys, "sweep", "--nl", "5", "--nr", "4", "--ml", "2", "--hmax", "5", "--engine", "full"
    )
    assert code_ids == code_cnt == 0
    # same counts, different ids: identical data rows (permutation equivariance)
    assert out_ids.splitlines()[2:] == out_cnt.splitlines()[2:]


def test_sweep_writes_output_file(tmp_path, capsys):
    target = tmp_path / "curve.csv"
    code, out, _ = run_cli(
        capsys,
        "sweep", "--nl", "5", "--nr", "4", "--ml", "1", "--hmax", "4",
        "--engine", "reduced", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("# robustwalk sweep")


def test_sweep_unwritable_output_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "curve.csv"
    code, out, err = run_cli(
        capsys,
        "sweep", "--nl", "5", "--nr", "4", "--ml", "1", "--hmax", "4", "--out", str(target),
    )
    assert code == 2
    assert out == ""
    assert "cannot write output file" in err
    assert not target.parent.exists()


@pytest.mark.parametrize("flag,value", [("--ml", "abc"), ("--ml", "1,x"), ("--mr", "2.5")])
def test_sweep_rejects_non_integer_marked(capsys, flag, value):
    code, _, err = run_cli(capsys, "sweep", "--nl", "5", "--nr", "4", flag, value, "--hmax", "4")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("option", ["--convention", "--seed", "--config"])
def test_sweep_has_no_convention_or_seed_option(capsys, option):
    code, _, err = run_cli(capsys, "sweep", "--nl", "5", "--nr", "4", "--ml", "1", option, "3")
    assert code == 2
    assert err.startswith("error: unrecognized arguments")


def test_internal_value_error_is_not_a_usage_error(monkeypatch, capsys):
    from robustwalk import reduced

    def broken_coin(model, alpha):
        raise ValueError("internal fault")

    monkeypatch.setattr(reduced, "coin_matrix", broken_coin)
    with pytest.raises(ValueError, match="internal fault"):
        main(["sweep", "--nl", "5", "--nr", "4", "--ml", "1", "--hmax", "4", "--engine", "reduced"])


def _raise_internal_fault(*args, **kwargs):
    raise ValueError("internal fault")


@pytest.mark.parametrize(
    "target,argv",
    [
        ("robustwalk.schedule.gamma_params", ["schedule", "--h", "5"]),
        ("robustwalk.schedule.gamma_params", ["sweep", "--nl", "5", "--nr", "4", "--ml", "1", "--hmax", "4"]),
        ("robustwalk.cli.step_bound_threshold", ["bound", "--nl", "600", "--nr", "1000", "--ml", "10"]),
    ],
    ids=["schedule", "sweep", "bound"],
)
def test_library_value_error_propagates(monkeypatch, target, argv):
    monkeypatch.setattr(target, _raise_internal_fault)
    with pytest.raises(ValueError, match="internal fault"):
        main(argv)


def test_sweep_norm_drift_exits_1(monkeypatch, capsys):
    from robustwalk import reduced

    original = reduced.shift_matrix
    monkeypatch.setattr(reduced, "shift_matrix", lambda model: 1.001 * original(model))
    code, out, err = run_cli(
        capsys, "sweep", "--nl", "5", "--nr", "4", "--ml", "1", "--hmax", "4", "--engine", "reduced"
    )
    assert code == 1
    assert out == ""
    assert "invariant violation" in err and "at step 1" in err


def test_verify_rejects_negative_seed(capsys):
    code, _, err = run_cli(capsys, "verify", "--trials", "1", "--seed", "-1")
    assert code == 2


def test_verify_rejects_zero_trials(capsys):
    code, _, err = run_cli(capsys, "verify", "--trials", "0")
    assert code == 2


def test_verify_passes_quickly(capsys):
    code, out, _ = run_cli(capsys, "verify", "--trials", "3", "--seed", "1")
    assert code == 0
    assert "all 9 suites passed" in out


def test_verify_corrupted_coin_fails_naming_identity(capsys):
    code, out, _ = run_cli(capsys, "verify", "--trials", "3", "--seed", "1", "--corrupt-coin")
    assert code == 1
    assert "FAIL identity C=ARA" in out


def test_missing_subcommand_exits_2(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2
    assert err.startswith("error:")


# In-process fuzzing of every input the parser owns.  Each drawn case is bad
# input, so main must return 2 with an 'error:' line before any library entry
# point runs; the entry points are replaced by a function that fails the test.

SWEEP = ["sweep", "--nl", "5", "--nr", "4", "--ml", "1", "--hmax", "3"]
BOUND = ["bound", "--nl", "5", "--nr", "4", "--ml", "1"]
SCHEDULE = ["schedule", "--h", "5"]
VERIFY = ["verify", "--trials", "1"]
LIBRARY_ENTRY_POINTS = ("sweep", "run_all", "build_schedule", "step_bound", "step_bound_threshold", "build_model")


def _library_reached(*args, **kwargs):
    raise RuntimeError("bad input reached the library")


@st.composite
def bad_marked(draw):
    """A marked-vertex flag that names no valid vertex set: empty, or ids
    with duplicates, whitespace and trailing commas plus one bad entry."""
    command = draw(st.sampled_from(["sweep", "bound"]))
    nl, nr = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    flag, side = draw(st.sampled_from([("--ml", nl), ("--mr", nr)]))
    argv = [command, "--nl", str(nl), "--nr", str(nr)]
    if draw(st.booleans()):
        return argv + [flag, draw(st.sampled_from(["", " ", ",", " , ,", ",,,", "0"]))]
    ids = draw(st.lists(st.integers(0, side - 1), max_size=4))
    ids += draw(st.lists(st.sampled_from(ids), max_size=2)) if ids else []
    bad = draw(
        st.integers(max_value=-1).map(str)
        | st.integers(min_value=side).map(str)
        | st.sampled_from(["x", "1.5", "0x1", "1e3", "--", str(10**400)])
    )
    parts = draw(st.permutations([str(i) for i in ids] + [bad]))
    pad = st.sampled_from(["", " ", "\t"])
    # a single part without a comma would parse as a count, which may be valid
    end = draw(st.sampled_from(["", ",", ", ,"][len(parts) == 1:]))
    value = ",".join(draw(pad) + part + draw(pad) for part in parts) + end
    return argv + [flag, value]


@st.composite
def bad_epsilon(draw):
    value = draw(
        st.sampled_from(["nan", "inf", "-inf", "0", "1e-400", "2", "-0.1", "1.0000001", "abc", ""])
        | st.floats().filter(lambda x: not 0.0 < x <= 1.0).map(repr)
    )
    return draw(st.sampled_from([SWEEP, BOUND, SCHEDULE])) + ["--epsilon", value]


@st.composite
def out_of_range_integer(draw):
    argv, flag, lo, hi = draw(
        st.sampled_from(
            [
                (SWEEP, "--nl", 1, MAX_SIDE),
                (SWEEP, "--nr", 1, MAX_SIDE),
                (SWEEP, "--hmax", 1, MAX_STEPS),
                (BOUND, "--nl", 1, MAX_SIDE),
                (BOUND, "--nr", 1, MAX_SIDE),
                (SCHEDULE, "--h", 3, MAX_STEPS),
                (VERIFY, "--trials", 1, None),
                (VERIFY, "--seed", 0, None),
            ]
        )
    )
    values = st.integers(max_value=lo - 1)
    if hi is not None:
        values |= st.integers(min_value=hi + 1) | st.sampled_from([10**30, 10**400])
    return argv + [flag, str(draw(values))]


BAD_INPUTS = st.one_of(
    bad_marked(),
    bad_epsilon(),
    out_of_range_integer(),
    st.sampled_from([[], ["frobnicate"], ["--nl", "5"], ["sweep", "--nl"]]),
)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(BAD_INPUTS)
def test_bad_input_exits_2_before_the_library_runs(argv):
    err, out = io.StringIO(), io.StringIO()
    unreachable = dict.fromkeys(LIBRARY_ENTRY_POINTS, _library_reached)
    with mock.patch.multiple(cli, **unreachable), redirect_stderr(err), redirect_stdout(out):
        code = main(argv)
    assert code == 2, (argv, err.getvalue())
    assert err.getvalue().startswith("error:")
    assert "Traceback" not in err.getvalue()
    assert out.getvalue() == ""


@pytest.mark.parametrize(
    "argv,message",
    [
        (["bound", "--nl", "3", "--nr", "4", "--ml", "5"], "--ml count 5 exceeds the side size 3"),
        (["sweep", "--nl", "3", "--nr", "4", "--ml", "5", "--hmax", "4"], "--ml count 5 exceeds the side size 3"),
        (["bound", "--nl", "3", "--nr", "4", "--mr", "5"], "--mr count 5 exceeds the side size 4"),
        (["bound", "--nr", "4", "--ml", "1"], "the following arguments are required: --nl"),
        (["sweep", "--nl", "3", "--ml", "1", "--hmax", "4"], "the following arguments are required: --nr"),
    ],
)
def test_marked_side_checks_exit_2_before_the_library_runs(capsys, argv, message):
    with mock.patch.multiple(cli, **dict.fromkeys(LIBRARY_ENTRY_POINTS, _library_reached)):
        code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
