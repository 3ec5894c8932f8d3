"""``python -m repro campaign --checkpoint-dir``: every mode resumes.

Running the same command twice against one directory must resume the
second time -- not re-run -- and print the same metrics.
"""

import pytest

from repro.al.cli import main

MODES = {
    "single": (["--rounds", "2", "--batch", "2", "--max-ranks", "32"], "campaign.json"),
    "sharded": (
        ["--shards", "4", "--rounds", "2", "--batch", "2", "--pool-size", "60"],
        "manifest.json",
    ),
}


def _run(capsys, argv) -> dict:
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    return dict(line.split(":", 1) for line in lines if ":" in line)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_rerun_resumes_from_checkpoint_dir(tmp_path, capsys, mode):
    argv, marker = MODES[mode]
    argv = argv + ["--seed", "3", "--checkpoint-dir", str(tmp_path / "ck")]
    first = _run(capsys, argv)
    checkpoint = tmp_path / "ck" / marker
    written = checkpoint.read_bytes()

    second = _run(capsys, argv)
    assert first.pop("resumed").strip() == "false"
    assert second.pop("resumed").strip() == "true"
    assert first == second
    assert first["stop_reason"].strip() == "completed"
    # A finished checkpoint resumes without running (or rewriting) a round.
    assert checkpoint.read_bytes() == written


def test_removed_rff_solver_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--solver", "rff"])
    assert exc.value.code == 2
    assert "'exact', 'nystrom', 'auto'" in capsys.readouterr().err


def test_sharded_mode_fits_with_the_chosen_solver(capsys, monkeypatch):
    from repro.al import sharding

    built = []

    class Recording(sharding.ShardedLearner):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(sharding, "ShardedLearner", Recording)
    argv = ["--shards", "2", "--rounds", "2", "--pool-size", "80", "--solver", "nystrom"]
    assert _run(capsys, argv)["stop_reason"].strip() == "completed"
    final = built[0]._models
    assert final and {m.solver_info["name"] for m in final.values()} == {"nystrom"}
