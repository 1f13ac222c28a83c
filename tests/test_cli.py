import pytest

from robustwalk.cli import main


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


def test_sweep_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nl=5\nnr=4\nml=1\nhmax=4\nengine=reduced\n# comment line\n")
    code, from_cfg, _ = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    assert "hmax=4" in from_cfg.splitlines()[0]
    code, overridden, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--hmax", "6")
    assert code == 0
    assert "hmax=6" in overridden.splitlines()[0]


def test_sweep_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate=1\n")
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 2


@pytest.mark.parametrize("flag,value", [("--ml", "abc"), ("--ml", "1,x"), ("--mr", "2.5")])
def test_sweep_rejects_non_integer_marked(capsys, flag, value):
    code, _, err = run_cli(capsys, "sweep", "--nl", "5", "--nr", "4", flag, value, "--hmax", "4")
    assert code == 2
    assert "error" in err


def test_sweep_rejects_non_utf8_config(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"nl=5\nnr=4\n# caf\xe9\n")
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 2
    assert "cannot read config file" in err


@pytest.mark.parametrize("option", ["--convention", "--seed"])
def test_sweep_has_no_convention_or_seed_option(capsys, option):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--nl", "5", "--nr", "4", "--ml", "1", option, "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("key", ["convention", "seed"])
def test_sweep_rejects_removed_config_keys(tmp_path, capsys, key):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"nl=5\nnr=4\nml=1\nhmax=4\n{key}=3\n")
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 2
    assert "unknown config key" in err


def test_internal_value_error_is_not_a_usage_error(monkeypatch, capsys):
    from robustwalk import reduced

    def broken_coin(model, alpha):
        raise ValueError("internal fault")

    monkeypatch.setattr(reduced, "coin_matrix", broken_coin)
    with pytest.raises(ValueError, match="internal fault"):
        main(["sweep", "--nl", "5", "--nr", "4", "--ml", "1", "--hmax", "4", "--engine", "reduced"])


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


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
