import ast
import copy
import inspect
import json
import math
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import samplebench.harness.run as run_module
from samplebench.diffusion import simulate_backward_logweights
from samplebench.errors import ConfigError
from samplebench.harness import (
    ExactDraws,
    Protocol,
    apply_desk_scale,
    emit_results,
    load_config,
    parse_config,
    run_ablation,
    run_experiment,
    running_average,
    select_best,
)
from samplebench.harness.ablate import ablation_cells
from samplebench.harness.emit import render_checkpoint_csv
from samplebench.harness.evaluate import evaluate_sampler
from samplebench.harness.registry import (METHOD_PARAMS, TARGETS, MethodDriver, MfviSampler,
                                          SmcSampler, build_target)
from samplebench.harness.run import smooth_reports
from samplebench.kernels import AnnealedPath, HmcConfig, MhConfig
from samplebench.metrics import MetricReport
from samplebench.numerics import RngStream
from samplebench.numerics.nets import DriftNet
from samplebench.sis import AffineFlow, backward_transport_logweights, craft_train, smc_run
from samplebench.targets import DiagonalGaussian, make_mog_target
from samplebench.targets.mixtures import MixtureSpec

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def tiny_config(**overrides):
    doc = {
        "schema_version": 1,
        "target": {"name": "gaussian", "dim": 1},
        "method": {"name": "mfvi", "iterations": 60, "batch_size": 32,
                   "learning_rate": 0.05, "sigma0": 2.0},
        "protocol": {"n_checkpoints": 6, "running_avg_len": 5, "eval_samples": 64,
                     "ipm_subsample": 0},
        "seeds": [0, 1],
        "output_dir": "unused",
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in doc:
            if "name" in value and value["name"] != doc[key]["name"]:
                doc[key] = {}  # another target or method: the default's keys are not its own
            doc[key].update(value)
        else:
            doc[key] = value
    return doc


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 0.125
        return self.t


# ------------------------------------------------------------------ validation
def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(tiny_config(extra_field=1))


def test_unknown_method_key_rejected():
    for key in ("learning_rat", "dds_literal_table"):  # a typo and a deleted option
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(tiny_config(method={"name": "mfvi", key: 0.1}))


def test_unknown_protocol_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(tiny_config(protocol={"emc_variant": "literal"}))


def test_key_of_another_target_or_method_rejected():
    # the keys a section may set are its own target's or method's, not the union
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(tiny_config(target={"name": "brownian", "dim": 2}))
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(tiny_config(method={"name": "smc", "iterations": 5000}))
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(tiny_config(method={"name": "pis", "proposal_mean": [0.0]}))


def test_removed_knobs_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(tiny_config(protocol={"n_seeds": 4}))
    for key, value in (("pretrain_base", True), ("pretrain_batch", 512),
                       ("pretrain_iterations", 8000), ("pretrain_lr", 5e-3)):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(tiny_config(method={"name": "mcd", key: value}))
    # a diffusion method takes only the keys of the parts its kernels read
    removed = [("pis", "sigma0", 2.0), ("pis", "trainable_proposal", True),
               ("ula", "guidance", True)]
    removed += [(m, "trainable_betas", True) for m in ("dds", "pis", "dis", "gbs")]
    for method, key, value in removed:
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(tiny_config(method={"name": method, key: value}))


def test_ablation_grid_key_only_where_its_ablation_applies():
    config = parse_config(tiny_config(method={"name": "mfvi", "sigma0_grid": [1, 2.5]}))
    assert config.method_params["sigma0_grid"] == [1, 2.5]
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(tiny_config(method={"name": "mfvi", "n_steps_grid": [8, 32]}))


@pytest.mark.parametrize("section,key,value", [
    ("method", "iterations", 2.5),
    ("method", "batch_size", True),
    ("protocol", "eval_samples", "64"),
    ("target", "dim", 1.0),
])
def test_wrongly_typed_value_rejected(section, key, value):
    with pytest.raises(ConfigError, match=f"{key}.* takes a"):
        parse_config(tiny_config(**{section: {key: value}}))


def test_wrongly_typed_method_values_rejected():
    with pytest.raises(ConfigError, match="guidance.* takes a bool"):
        parse_config(tiny_config(method={"name": "dds", "guidance": "yes"}))
    with pytest.raises(ConfigError, match="sigma0.* takes a float"):
        parse_config(tiny_config(method={"name": "dds", "sigma0": True}))
    with pytest.raises(ConfigError, match="proposal_mean.* takes a list"):
        parse_config(tiny_config(method={"name": "craft", "proposal_mean": 0.0}))


def test_section_name_must_be_a_string():
    for section in ("target", "method"):
        with pytest.raises(ConfigError, match="name string"):
            parse_config(tiny_config(**{section: {"name": ["mog"]}}))


@pytest.mark.parametrize("seeds", [["0"], [True], [], [0, 1.0], 3])
def test_seeds_must_be_distinct_ints(seeds):
    with pytest.raises(ConfigError, match="seeds"):
        parse_config(tiny_config(seeds=seeds))


@pytest.mark.parametrize("key, value", [
    ("n_checkpoints", 0), ("running_avg_len", 0), ("eval_samples", 1), ("sinkhorn_iters", 0),
    ("sinkhorn_iters", -5), ("ipm_subsample", 1), ("ipm_subsample", -2),
])
def test_protocol_value_out_of_range_rejected(key, value):
    with pytest.raises(ConfigError, match=f"{key}.* must be"):
        parse_config(tiny_config(protocol={key: value}))


def test_protocol_bounds_are_inclusive_and_ipm_subsample_0_means_no_ipm():
    edges = {"n_checkpoints": 1, "running_avg_len": 1, "eval_samples": 2, "sinkhorn_iters": 1}
    for ipm_subsample in (0, 2):
        config = parse_config(tiny_config(protocol={**edges, "ipm_subsample": ipm_subsample}))
        assert config.protocol.ipm_subsample == ipm_subsample


@pytest.mark.parametrize("key, value", [("running_avg_len", 0), ("ipm_subsample", 1),
                                        ("sinkhorn_iters", -5)])
def test_cli_run_protocol_out_of_range_exits_2(tmp_path, capsys, key, value):
    # before, the first two ran to exit 0 with criteria silently dropped
    from samplebench.cli import main

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(tiny_config(protocol={key: value},
                                          output_dir=str(tmp_path / "out"))))
    assert main(["run", "--config", str(bad)]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# Each ranged key: (values just outside its range, values at its edges or, for a
# strict bound, just inside). Written out here as the oracle of `config.RANGES`.
RANGE_CASES = {
    **dict.fromkeys(("iterations", "batch_size", "n_steps", "leapfrog_steps", "mh_substeps",
                     "n_checkpoints", "running_avg_len", "sinkhorn_iters"), ([0], [1])),
    **dict.fromkeys(("particles", "eval_samples"), ([1], [2])),
    "ipm_subsample": ([1, -2], [0, 2]),
    **dict.fromkeys(("sigma0", "sigma_max", "learning_rate", "step_size_low", "step_size_high",
                     "scale_low", "scale_high"), ([0.0, -1.0], [1e-6])),
    "resample_threshold": ([-0.1, 1.1], [0.0, 1.0]),
    "kernel": (["gibbs"], ["hmc", "mh"]),
    "sigma_schedule": (["linear"], ["cosine", "constant"]),
    "loss": (["kl"], ["elbo", "vargrad"]),
}
RANGED_KEYS = ([(method, "method", key) for method, declared in METHOD_PARAMS.items()
                for key in declared if key in RANGE_CASES]
               + [("mfvi", "protocol", key) for key in vars(Protocol())])


def _range_doc(method, section, key, value, out):
    if section == "protocol":
        return tiny_config(protocol={key: value}, output_dir=str(out))
    budget = {k: v for k, v in DRIVER_BUDGET.items() if k in METHOD_PARAMS[method]}
    return tiny_config(method={"name": method, **budget, key: value}, seeds=[0],
                       output_dir=str(out))


@pytest.mark.parametrize("method, section, key", RANGED_KEYS,
                         ids=[f"{m}-{s}-{k}" for m, s, k in RANGED_KEYS])
def test_value_outside_its_range_exits_2_before_anything_runs(tmp_path, capsys, method,
                                                              section, key):
    # before, most of these failed every seed (exit 3) or ran to a meaningless
    # exit 0, for example DDS sigma_schedule "linear", which ran as cosine
    from samplebench.cli import main

    outside, edges = RANGE_CASES[key]
    for value in outside:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_range_doc(method, section, key, value, tmp_path / "out")))
        assert main(["run", "--config", str(cfg_path)]) == 2, value
        assert f"{section} key {key!r} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
    for value in edges:
        config = parse_config(_range_doc(method, section, key, value, tmp_path / "out"))
        params = config.method_params if section == "method" else vars(config.protocol)
        assert params[key] == value


def test_every_numeric_or_string_key_has_a_range():
    # a key added later cannot skip the range table, and the table names no other key
    from samplebench.harness.config import RANGES

    def ranged(declared):
        return {key for key, default in declared.items()
                if (default if isinstance(default, type) else type(default)) in (int, float, str)}

    keys = set().union(*map(ranged, METHOD_PARAMS.values()), ranged(vars(Protocol())))
    assert keys == RANGES.keys() == RANGE_CASES.keys()


GRIDS_OUT_OF_RANGE = [
    ("dds", "num_steps", {"n_steps_grid": [4, 2.7]}),  # before: ran n_steps = int(2.7)
    ("dds", "init_support", {"sigma0_grid": [1.0, 0.0]}),
    ("mfvi", "init_support", {"sigma0_grid": [1.0, "2"]}),
    ("mfvi", "batchsize", {"batch_grid": [16, 0]}),
    ("smc", "num_steps", {"n_steps_grid": [4, 0]}),  # before: ran the first cell
    ("craft", "batchsize", {"batch_grid": [16, 1]}),  # the grid fills CRAFT's particles
]


@pytest.mark.parametrize("method, kind, grid", GRIDS_OUT_OF_RANGE,
                         ids=[f"{m}-{list(g)[0]}-{g[list(g)[0]][1]}"
                              for m, _, g in GRIDS_OUT_OF_RANGE])
def test_grid_entry_outside_its_keys_range_exits_2_before_any_cell(tmp_path, capsys,
                                                                   monkeypatch, method, kind,
                                                                   grid):
    from samplebench.cli import main

    trained = []
    monkeypatch.setattr(MethodDriver, "train", lambda *args: trained.append(args))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(method={"name": method, **grid},
                                               output_dir=str(tmp_path / "out"))))
    assert main(["ablate", "--config", str(cfg_path), "--kind", kind]) == 2
    assert f"{list(grid)[0]} entry" in capsys.readouterr().err
    assert trained == []
    assert not (tmp_path / "out").exists()


def test_batch_grid_fills_particles_for_smc_and_craft_and_batch_size_otherwise():
    for method, key in (("craft", "particles"), ("mfvi", "batch_size"), ("dds", "batch_size")):
        low = RANGE_CASES[key][1][0]
        config = parse_config(tiny_config(method={"name": method, "batch_grid": [low, 8]}))
        assert ablation_cells("batchsize", config) == [(f"{key}={low}", {key: low}),
                                                       (f"{key}=8", {key: 8})]


@pytest.mark.parametrize("grid, kind", [("n_steps_grid", "num_steps"),
                                        ("batch_grid", "batchsize"),
                                        ("sigma0_grid", "init_support")])
def test_empty_ablation_grid_exits_2_with_nothing_written(tmp_path, capsys, monkeypatch,
                                                         grid, kind):
    # before, an empty grid ran no cell and wrote a header-only CSV with exit 0
    from samplebench.cli import main

    trained = []
    monkeypatch.setattr(MethodDriver, "train", lambda *args: trained.append(args))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(target={"name": "gaussian", "dim": 2},
                                               method={"name": "dds", grid: []},
                                               output_dir=str(tmp_path / "out"))))
    assert main(["ablate", "--config", str(cfg_path), "--kind", kind]) == 2
    assert f"{grid!r} must have at least one entry" in capsys.readouterr().err
    assert trained == []
    assert not (tmp_path / "out").exists()


VARGRAD_BATCH_OF_ONE = [
    ("run", None, {"loss": "vargrad", "batch_size": 1}),
    ("ablate", "batchsize", {"loss": "vargrad", "batch_grid": [8, 1]}),
    ("ablate", "loss_fn", {"batch_size": 1}),  # the loss=vargrad cell
    ("ablate", "num_steps", {"loss": "vargrad", "batch_size": 1}),
]


@pytest.mark.parametrize("command, kind, values", VARGRAD_BATCH_OF_ONE,
                         ids=["run", "batch_grid", "loss_fn", "base-of-an-ablation"])
def test_vargrad_with_a_batch_below_2_exits_2_before_anything_runs(tmp_path, capsys,
                                                                  monkeypatch, command, kind,
                                                                  values):
    # before, every seed of such a run or cell failed in training (exit 3)
    from samplebench.cli import main

    trained = []
    monkeypatch.setattr(MethodDriver, "train", lambda *args: trained.append(args))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(
        target={"name": "gaussian", "dim": 2},
        method={"name": "dds", "iterations": 2, "n_steps": 4, **values},
        output_dir=str(tmp_path / "out"))))
    args = [command, "--config", str(cfg_path)] + (["--kind", kind] if kind else [])
    assert main(args) == 2
    assert "loss 'vargrad' needs batch_size at least 2" in capsys.readouterr().err
    assert trained == []
    assert not (tmp_path / "out").exists()


def test_vargrad_takes_a_batch_of_2_and_elbo_a_batch_of_1():
    for loss, batch_size in (("vargrad", 2), ("elbo", 1)):
        config = parse_config(tiny_config(method={"name": "dds", "loss": loss,
                                                  "batch_size": batch_size}))
        assert config.method_params["batch_size"] == batch_size


def test_int_fills_a_float_key():
    config = parse_config(tiny_config(method={"name": "dds", "sigma_max": 12, "sigma0": 3}))
    assert config.method_params == {"sigma_max": 12, "sigma0": 3}


def test_absent_seeds_default_to_four():
    doc = tiny_config()
    del doc["seeds"]
    assert parse_config(doc).seeds == [0, 1, 2, 3]


def _bench_workloads():
    """The benchmark's `perfbench/workloads.py`, which generates its run configs."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return workloads


def test_shipped_configs_parse():
    # configs/ and the benchmark's generated workloads name only declared keys
    bench = _bench_workloads()
    paths = sorted((ROOT / "configs").glob("*.json"))
    assert len(paths) == 3
    for path in paths:
        load_config(path)
    for name in bench.WORKLOADS:
        parse_config(bench.workload_config(name, 0, "unused"))


def test_readme_config_example_parses():
    # the config block in the README must name only keys the parser accepts
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    config = parse_config(json.loads(blocks[0]))
    assert (config.target_name, config.method_name) == ("mog", "dds")


def test_wrong_schema_version_rejected():
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config(tiny_config(schema_version=7))


def test_unknown_names_rejected():
    with pytest.raises(ConfigError, match="unknown target"):
        parse_config(tiny_config(target={"name": "mixture_of_unicorns"}))
    with pytest.raises(ConfigError, match="unknown method"):
        parse_config(tiny_config(method={"name": "quantum"}))


def test_duplicate_seeds_rejected():
    with pytest.raises(ConfigError, match="seeds"):
        parse_config(tiny_config(seeds=[0, 0, 1]))


def test_logistic_requires_existing_csv():
    with pytest.raises(ConfigError, match="csv_path"):
        parse_config(tiny_config(target={"name": "logistic", "csv_path": "/nope.csv"}))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.json")


def test_desk_scale_only_fills_defaults():
    config = parse_config(tiny_config())
    config = apply_desk_scale(config)
    assert config.method_params["iterations"] == 60  # explicit value kept
    assert config.protocol.n_checkpoints <= 25


# ------------------------------------------------------------------- smoothing
def test_running_average_spike():
    series = [0.0, 0.0, 0.0, 0.0, 10.0, 0.0, 0.0]
    out = running_average(series, 5)
    assert out[4] == pytest.approx(2.0)
    assert out[0] == 0.0
    assert out[5] == pytest.approx(2.0)  # spike still inside the trailing window


def test_running_average_short_prefix():
    out = running_average([4.0, 8.0], 5)
    assert out == [4.0, 6.0]


def test_best_selection_tie_breaks_earliest():
    reports = [MetricReport(elbo=v) for v in (1.0, 3.0, 3.0, 2.0)]
    assert select_best(reports) == 1


# ------------------------------------------------------------ experiment runs
def test_protocol_row_counts(tmp_path):
    doc = tiny_config(protocol={"n_checkpoints": 10, "eval_samples": 32,
                                "ipm_subsample": 0},
                      method={"name": "mfvi", "iterations": 50, "batch_size": 16,
                              "learning_rate": 0.05, "sigma0": 2.0},
                      seeds=[0, 1, 2, 3])
    record = run_experiment(parse_config(doc), clock=FakeClock())
    csv_text = render_checkpoint_csv(record)
    rows = csv_text.strip().splitlines()
    assert len(rows) == 1 + 10 * 4  # header + checkpoints x seeds


def test_seed_order_invariance(tmp_path):
    base = parse_config(tiny_config(seeds=[0, 1, 2]))
    swapped = parse_config(tiny_config(seeds=[2, 0, 1]))
    rec_a = run_experiment(base, clock=FakeClock())
    rec_b = run_experiment(swapped, clock=FakeClock())
    assert rec_a.summary == rec_b.summary


def _fail_seed_1(monkeypatch):
    from samplebench.harness.registry import MethodDriver

    train = MethodDriver.train

    def train_failing_on_seed_1(self, target, target_name, seed, n_checkpoints, checkpoint_cb):
        if seed == 1:
            raise FloatingPointError("diverged")
        return train(self, target, target_name, seed, n_checkpoints, checkpoint_cb)

    monkeypatch.setattr(MethodDriver, "train", train_failing_on_seed_1)


def test_seed_failing_before_first_checkpoint_keeps_other_seeds(tmp_path, monkeypatch):
    _fail_seed_1(monkeypatch)
    record = run_experiment(parse_config(tiny_config(seeds=[0, 1, 2])), clock=FakeClock())
    assert record.failures == [{"seed": 1, "error": "FloatingPointError: diverged"}]
    assert [r.seed for r in record.seed_records] == [0, 2]
    assert all(len(r.reports) == 6 for r in record.seed_records)
    assert record.summary["elbo"]["n_seeds"] == 2
    paths = emit_results(record, tmp_path)
    rows = paths["csv"].read_text().strip().splitlines()[1:]
    assert sorted({row.split(",")[0] for row in rows}) == ["0", "2"]
    summary = json.loads(paths["summary"].read_text())
    assert summary["failures"] == record.failures
    assert summary["best_checkpoints"].keys() == {"0", "2"}


def test_failed_seed_keeps_ablation_grid_and_exits_3(tmp_path, monkeypatch):
    from samplebench.cli import main

    _fail_seed_1(monkeypatch)
    doc = tiny_config(method={"name": "mfvi", "iterations": 20, "batch_size": 16,
                              "learning_rate": 0.05, "sigma0_grid": [1.0, 3.0]},
                      protocol={"n_checkpoints": 2, "eval_samples": 32, "ipm_subsample": 0},
                      output_dir=str(tmp_path / "out"))
    record = run_ablation("init_support", parse_config(doc), clock=FakeClock())
    assert [len(run.seed_records) for _, _, run in record.cells] == [1, 1]
    assert all(run.failures == [{"seed": 1, "error": "FloatingPointError: diverged"}]
               for _, _, run in record.cells)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(cfg_path)]) == 3
    assert main(["ablate", "--config", str(cfg_path), "--kind", "init_support"]) == 3
    summary = next((tmp_path / "out").glob("ablation_*_summary.json"))
    assert set(json.loads(summary.read_text())["failures"]) == {"sigma0=1", "sigma0=3"}


def test_config_error_during_training_is_not_a_seed_failure():
    # a wrongly sized pretrained base is found only once the target's dimension is known
    doc = tiny_config(method={"name": "craft", "iterations": 2, "particles": 8, "n_steps": 2,
                              "proposal_mean": [0.0, 0.0], "proposal_log_std": [0.0, 0.0]},
                      seeds=[0, 1])  # the target has d = 1
    with pytest.raises(ConfigError, match="pretrained base"):
        run_experiment(parse_config(doc), clock=FakeClock())


SAMPLER_VALUES_OUT_OF_RANGE = [
    ("smc", {"leapfrog_steps": 0}),
    ("smc", {"step_size_low": 0.0}),
    ("smc", {"kernel": "mh", "scale_low": -1.0}),
    ("smc", {"kernel": "mh", "mh_substeps": 0}),
    ("smc", {"particles": 1}),
    ("smc", {"n_steps": 0}),
    ("craft", {"step_size_high": -0.1}),
    ("craft", {"kernel": "mh", "scale_high": 0.0}),
    ("craft", {"particles": 1}),
    ("craft", {"n_steps": -1}),
]


@pytest.mark.parametrize("method, values", SAMPLER_VALUES_OUT_OF_RANGE,
                         ids=[f"{m}-{list(v)[-1]}" for m, v in SAMPLER_VALUES_OUT_OF_RANGE])
def test_sampler_values_out_of_range_are_config_errors(tmp_path, method, values):
    # before, each failed every seed and exited 3, except mh_substeps 0, which
    # exited 0 without a single MCMC move
    from samplebench.cli import main

    budget = {"iterations": 2} if method == "craft" else {}
    doc = tiny_config(target={"name": "gaussian", "dim": 2},
                      method={"name": method, "particles": 8, "n_steps": 2, **budget, **values},
                      output_dir=str(tmp_path / "out"))
    with pytest.raises(ConfigError, match="MCMC kernel|method key"):
        run_experiment(parse_config(doc), clock=FakeClock())
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("vectors", [
    {"proposal_mean": [0.0, 0.0]},
    {"proposal_log_std": [0.0, 0.0]},
    {"proposal_mean": [0.0], "proposal_log_std": [0.0]},  # the target has d = 2
])
def test_bad_proposal_vectors_are_config_errors(tmp_path, vectors):
    from samplebench.cli import main

    doc = tiny_config(target={"name": "gaussian", "dim": 2},
                      method={"name": "dds", "iterations": 2, "batch_size": 8, "n_steps": 4,
                              "sigma_max": 1.0, **vectors},
                      output_dir=str(tmp_path / "out"))
    with pytest.raises(ConfigError, match="proposal_mean"):
        run_experiment(parse_config(doc), clock=FakeClock())
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["dds", "dis"])
def test_default_num_steps_ablation_runs_every_cell(tmp_path, name):
    # the default grid [8, 32, 128] with the default sigma_max 8 takes a hop of
    # sigma dt = 1 at 8 steps; the exact OU transition is valid at any step size
    from samplebench.cli import main

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(
        target={"name": "gaussian", "dim": 2},
        method={"name": name, "iterations": 2, "batch_size": 8},
        protocol={"n_checkpoints": 1, "eval_samples": 32}, seeds=[0],
        output_dir=str(tmp_path / "out"))))
    assert main(["ablate", "--config", str(cfg_path), "--kind", "num_steps"]) == 0
    rows = next((tmp_path / "out").glob("ablation_num_steps_*.csv")).read_text().splitlines()
    assert [row.split(",")[1] for row in rows[1:]] == ["n_steps=8", "n_steps=32", "n_steps=128"]


def test_deterministic_bytes_with_injected_clock(tmp_path):
    config = parse_config(tiny_config(output_dir=str(tmp_path / "a")))
    rec_a = run_experiment(config, clock=FakeClock())
    paths_a = emit_results(rec_a, tmp_path / "a")
    config_b = parse_config(tiny_config(output_dir=str(tmp_path / "b")))
    rec_b = run_experiment(config_b, clock=FakeClock())
    paths_b = emit_results(rec_b, tmp_path / "b")
    assert paths_a["csv"].read_bytes() == paths_b["csv"].read_bytes()
    assert paths_a["summary"].read_bytes() == paths_b["summary"].read_bytes()


def test_missing_criteria_emit_empty_cells(tmp_path):
    # brownian has no exact sampler: forward/mode/IPM columns must be empty
    doc = tiny_config(target={"name": "brownian"},
                      method={"name": "mfvi", "iterations": 40, "batch_size": 16,
                              "learning_rate": 0.01, "sigma0": 1.0})
    record = run_experiment(parse_config(doc), clock=FakeClock())
    lines = render_checkpoint_csv(record).strip().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    for col in ("eubo", "log_z_fwd", "ess_fwd", "emc", "ejs", "mmd", "w2", "w2_converged"):
        assert row[header.index(col)] == ""
    for col in ("elbo", "log_z_rev", "ess_rev"):
        assert row[header.index(col)] != ""


def test_csv_roundtrip_six_significant_digits(tmp_path):
    config = parse_config(tiny_config())
    record = run_experiment(config, clock=FakeClock())
    paths = emit_results(record, tmp_path)
    lines = paths["csv"].read_text().strip().splitlines()
    header = lines[0].split(",")
    first = lines[1].split(",")
    rep = record.seed_records[0].reports[0]
    for name in ("elbo", "ess_rev", "log_z_rev"):
        emitted = first[header.index(name)]
        assert emitted == f"{getattr(rep, name):.6g}"
        assert float(emitted) == pytest.approx(getattr(rep, name), rel=1e-5)


def test_w2_converged_column_is_the_sinkhorn_flag():
    record = run_experiment(parse_config(tiny_config(protocol={"ipm_subsample": 16})),
                            clock=FakeClock())
    lines = render_checkpoint_csv(record).strip().splitlines()
    header = lines[0].split(",")
    assert header[header.index("w2") + 1] == "w2_converged"
    rows = iter(lines[1:])
    for seed_rec in sorted(record.seed_records, key=lambda r: r.seed):
        raw_flags = [r.w2_converged for r in seed_rec.raw_reports]
        assert all(isinstance(flag, bool) for flag in raw_flags)
        for i, rep in enumerate(seed_rec.reports):
            assert rep.w2_converged == all(raw_flags[max(0, i - 4) : i + 1])  # window 5
            assert next(rows).split(",")[header.index("w2_converged")] == str(
                int(rep.w2_converged))
    assert "w2_converged" not in record.summary


@pytest.mark.parametrize("workload", _bench_workloads().WORKLOADS)
def test_every_w2_of_the_bench_workloads_converges(workload):
    # with an epsilon of 1e-3 on MoG costs in the thousands, 5 of these 6
    # checkpoints ran out of Sinkhorn iterations
    config = parse_config(_bench_workloads().workload_config(workload, 0, "unused"))
    record = run_experiment(config, clock=FakeClock())
    flags = [r.w2_converged for r in record.seed_records[0].raw_reports]
    assert len(flags) == config.protocol.n_checkpoints
    assert all(flag is True for flag in flags)


def test_smoothed_w2_converged_needs_every_flag_in_window():
    raw = [MetricReport(w2=1.0, w2_converged=flag) for flag in (True, True, False, True)]
    raw.append(MetricReport())
    assert [r.w2_converged for r in smooth_reports(raw, 2)] == [True, True, False, False, True]
    assert [r.w2_converged for r in smooth_reports(raw, 1)] == [True, True, False, True, None]


def test_emit_unwritable_path_leaves_no_partial(tmp_path):
    config = parse_config(tiny_config())
    record = run_experiment(config, clock=FakeClock())
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    os.chmod(blocked, stat.S_IRUSR | stat.S_IXUSR)
    try:
        if os.access(blocked, os.W_OK):  # running as root: permissions are advisory
            pytest.skip("cannot create an unwritable directory as this user")
        with pytest.raises(OSError):
            emit_results(record, blocked)
        assert list(blocked.iterdir()) == []
    finally:
        os.chmod(blocked, stat.S_IRWXU)


@pytest.mark.parametrize("blocked", ["csv", "summary"])
@pytest.mark.parametrize("kind", ["results", "ablation"])
def test_emit_failed_rename_leaves_no_temp_file(tmp_path, kind, blocked):
    # a directory on an output file's name fails that file's rename, as root too:
    # the error reaches the caller, and neither output nor temporary file is left
    from samplebench.harness import emit_ablation

    if kind == "results":
        record, emit = run_experiment(parse_config(tiny_config()), clock=FakeClock()), emit_results
    else:
        doc = tiny_config(method={"name": "mfvi", "iterations": 20, "batch_size": 16,
                                  "learning_rate": 0.05, "sigma0_grid": [1.0, 3.0]},
                          seeds=[0], protocol={"n_checkpoints": 2, "eval_samples": 32,
                                               "ipm_subsample": 0})
        record = run_ablation("init_support", parse_config(doc), clock=FakeClock())
        emit = emit_ablation
    written = emit(record, tmp_path / "unblocked")
    out = tmp_path / "out"
    (out / written[blocked].name).mkdir(parents=True)
    with pytest.raises(IsADirectoryError):
        emit(record, out)
    assert {p.name: p.is_dir() for p in out.iterdir()} == {written[blocked].name: True}


def test_nfe_monotone_within_run():
    config = parse_config(tiny_config())
    record = run_experiment(config, clock=FakeClock())
    for seed_rec in record.seed_records:
        nfes = [r.nfe_at_eval for r in seed_rec.reports]
        assert all(a <= b for a, b in zip(nfes, nfes[1:]))


# --------------------------------------------------------- checkpoint contract
CONTRACT_METHODS = {
    "mfvi": {"batch_size": 8, "learning_rate": 0.05, "sigma0": 2.0},
    "craft": {"n_steps": 3, "particles": 16, "leapfrog_steps": 2, "sigma0": 2.0},
    "dds": {"n_steps": 3, "batch_size": 8, "sigma0": 2.0, "sigma_max": 2.0},
}


def _fired(method, iterations, n_checkpoints, seed=0, **params):
    """(iteration, sampler) pairs that one MethodDriver.train call fires."""
    from samplebench.harness.registry import MethodDriver, build_target

    target = build_target("gaussian", {"dim": 2, "mean": 1.0})
    driver = MethodDriver(method, dict(CONTRACT_METHODS[method], iterations=iterations,
                                       **params))
    fired = []
    driver.train(target, "gaussian", seed, n_checkpoints,
                 lambda it, sampler: fired.append((it, sampler)))
    return fired


def test_one_checkpoint_evaluates_the_last_iteration():
    assert [it for it, _ in _fired("mfvi", 5, 1)] == [5]


@pytest.mark.parametrize("method", sorted(CONTRACT_METHODS))
@pytest.mark.parametrize("n_checkpoints", [1, 3, 12])
def test_checkpoints_fire_at_the_harness_marks(method, n_checkpoints):
    from samplebench.harness.registry import _checkpoint_marks

    iterations = 7
    fired = [it for it, _ in _fired(method, iterations, n_checkpoints)]
    assert fired == _checkpoint_marks(iterations, n_checkpoints)
    assert fired[-1] == iterations
    if n_checkpoints == 1:
        assert fired == [iterations]
    if n_checkpoints > iterations:
        assert fired == list(range(1, iterations + 1))


@pytest.mark.parametrize("method", sorted(CONTRACT_METHODS))
def test_zero_iterations_is_a_config_error(tmp_path, method):
    # with nothing trained there is no checkpoint: the run would emit no criteria
    from samplebench.cli import main

    doc = tiny_config(target={"name": "gaussian", "dim": 2},
                      method={"name": method, **CONTRACT_METHODS[method], "iterations": 0},
                      output_dir=str(tmp_path / "out"))
    with pytest.raises(ConfigError, match="'iterations' must be at least 1"):
        run_experiment(parse_config(doc), clock=FakeClock())
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n_checkpoints", [2, 4])
def test_craft_trains_once_whatever_the_checkpoint_count(n_checkpoints):
    # one craft_train call keeps each flow's Adam state across checkpoints
    from samplebench.harness.registry import build_target

    iterations, params = 6, CONTRACT_METHODS["craft"]
    _, sampler = _fired("craft", iterations, n_checkpoints, seed=3)[-1]
    target = build_target("gaussian", {"dim": 2, "mean": 1.0})
    path = AnnealedPath.linear(DiagonalGaussian.isotropic(2, params["sigma0"]), target,
                               params["n_steps"])
    flows = [AffineFlow.identity(2) for _ in range(params["n_steps"])]
    kernel = HmcConfig(leapfrog_steps=params["leapfrog_steps"], step_size_low=0.2,
                       step_size_high=0.2)
    craft_train(path, flows, kernel, iterations, params["particles"], RngStream(3, 0))
    for got, want in zip(sampler.flows, flows):
        assert np.array_equal(got.shift, want.shift)
        assert np.array_equal(got.log_scale, want.log_scale)


DRIVER_BUDGET = {"iterations": 2, "batch_size": 4, "particles": 4, "n_steps": 3,
                 "leapfrog_steps": 1, "mh_substeps": 1, "sigma_max": 1.0}
MH_KEYS = ("mh_substeps", "scale_low", "scale_high")
OTHER_CHOICE = {"hmc": "mh", "cosine": "constant", "constant": "cosine", "elbo": "vargrad"}


def _changed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return OTHER_CHOICE[value]
    if isinstance(value, list):
        return [0.5] * len(value)
    return value + 1 if isinstance(value, int) else value * 0.5


def _key_variants(method):
    """(key, params, the params with only that key changed) for each declared key.

    The proposal vectors shadow sigma0, so only their own variant sets them; MH
    keys run under the MH kernel; diffusion keys run with trainable sigma, since
    otherwise ULA trains nothing and MCD's states leave the tape.
    """
    declared = METHOD_PARAMS[method]
    base = {k: v for k, v in DRIVER_BUDGET.items() if k in declared}
    if "trainable_sigma" in declared:
        base["trainable_sigma"] = True
    for key, default in declared.items():
        params = dict(base, kernel="mh") if key in MH_KEYS else dict(base)
        if key in ("proposal_mean", "proposal_log_std"):
            params.update(proposal_mean=[0.0, 0.0], proposal_log_std=[0.0, 0.0])
        value = params.get(key, 2.0 if key == "sigma0" else default)
        yield key, {**params, key: value}, {**params, key: _changed(value)}


@pytest.mark.parametrize("method", sorted(METHOD_PARAMS))
def test_driver_reads_every_declared_key(method):
    # changing any declared key changes the first checkpoint's draws and log
    # weights, bitwise, from a fixed evaluation stream (so each key is read, too);
    # on the MoG, since SMC's increments vanish where the target is the proposal
    target = build_target("mog", {"dim": 2})
    runs = {}

    def first_draws(params):
        key = json.dumps(params, sort_keys=True)
        if key not in runs:  # one checkpoint: the last iteration
            fired = []
            MethodDriver(method, params).train(target, "mog", 0, 1,
                                               lambda it, sampler: fired.append(sampler))
            runs[key] = fired[0].sample_with_logweights(4, RngStream(7, 0))
        return runs[key]

    def same(a, b):
        return all(np.array_equal(u, v) for u, v in zip(a, b, strict=True))

    no_effect = [key for key, params, changed in _key_variants(method)
                 if same(first_draws(params), first_draws(changed))]
    assert no_effect == []


def test_readme_paper_scale_defaults_are_the_declared_ones():
    readme = " ".join((ROOT / "README.md").read_text().split())
    assert ("Paper-scale defaults (128 steps/temperatures, 2000 particles, resampling "
            "threshold 0.3, 10 leapfrog steps, 2-layer 64-unit drift nets)") in readme
    assert {p["n_steps"] for p in METHOD_PARAMS.values() if "n_steps" in p} == {128}
    for method in ("smc", "craft"):
        p = METHOD_PARAMS[method]
        assert (p["particles"], p["resample_threshold"], p["leapfrog_steps"]) == (2000, 0.3, 10)
    init = inspect.signature(DriftNet.init).parameters
    assert (init["hidden_layers"].default, init["hidden_width"].default) == (2, 64)


# ----------------------------------------------------- every method, every target
MATRIX_TARGETS = {"mog": {"dim": 2}, "mos": {"dim": 2}, "gaussian": {"dim": 2},
                  "funnel": {"dim": 4}, "brownian": {}, "logistic": {}}
# (reason, the text every failed seed's error must contain)
MATRIX_XFAIL = {
    **{(m, t): ("ROADMAP item 7: the target has no score_hvp to train through",
                "has no score_hvp")
       for m in ("cmcd", "dds", "pis", "dis", "gbs") for t in ("mos", "funnel", "brownian")},
    **{(m, t): ("ROADMAP item 5: a non-finite point aborts the whole batch",
                "non-finite point")
       for m in ("ula", "mcd") for t in ("funnel", "brownian")},
}


class StatedCauseFailure(Exception):
    """A matrix cell whose every seed failed for the cause its expected failure states."""


def _matrix_cells():
    """Every method on every target at T = 16, and again at T = 8 where it has steps.

    An expected failure holds only if it is raised as `StatedCauseFailure`: a
    cell that fails for any other cause fails the test.
    """
    for n_steps in (16, 8):
        for method in METHOD_PARAMS:
            if n_steps == 8 and "n_steps" not in METHOD_PARAMS[method]:
                continue
            for target in TARGETS:
                reason, cause = MATRIX_XFAIL.get((method, target), (None, None))
                marks = [pytest.mark.xfail(strict=True, raises=StatedCauseFailure,
                                           reason=reason)] if reason else []
                yield pytest.param(method, target, n_steps, cause, marks=marks,
                                   id=f"{method}-{target}-T{n_steps}")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the diverging cells overflow
@pytest.mark.parametrize("method, target, n_steps, cause", list(_matrix_cells()))
def test_every_method_runs_on_every_target(tmp_path, method, target, n_steps, cause):
    # two iterations of batch 16 (16 particles), two checkpoints, one seed
    params = dict(MATRIX_TARGETS[target])
    if target == "logistic":
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 2))
        labels = (x[:, 0] + 0.5 * rng.normal(size=20) > 0).astype(int)
        params["csv_path"] = str(tmp_path / "data.csv")
        Path(params["csv_path"]).write_text(
            "a,b,y\n" + "".join(f"{a},{b},{y}\n" for (a, b), y in zip(x, labels)))
    budget = {"iterations": 2, "batch_size": 16, "particles": 16, "n_steps": n_steps}
    config = parse_config(tiny_config(
        target={"name": target, **params},
        method={"name": method, **{k: v for k, v in budget.items() if k in METHOD_PARAMS[method]}},
        protocol={"n_checkpoints": 2, "eval_samples": 64, "ipm_subsample": 32,
                  "sinkhorn_iters": 20}, seeds=[0]))
    record = run_experiment(config, clock=FakeClock())
    if cause and record.failures and all(cause in f["error"] for f in record.failures):
        raise StatedCauseFailure(record.failures)
    assert record.failures == []
    assert record.summary
    assert all(np.isfinite(stats["mean"]) for stats in record.summary.values()), record.summary


def test_matrix_marks_38_cells_with_their_stated_causes():
    marked = [cell for cell in _matrix_cells() if cell.marks]
    assert len(marked) == 38
    assert {cell.values[3] for cell in marked} == {"has no score_hvp", "non-finite point"}


# ------------------------------------------------ known answers: the exact oracle
ORACLE_LOG_Z = 1.75  # gamma scaled by e^1.75, so that a sign error in log Z shows


class ExactOracle:
    """A sampler that draws the target exactly: every log weight is log Z, forward and backward."""

    def __init__(self, target):
        self.target = target

    def sample_with_logweights(self, n, rng):
        return self.target.exact_sampler(rng, n), np.full(n, self.target.true_log_z)

    def backward_logweights(self, y, rng, query=None):
        return np.full(len(y), self.target.true_log_z)


def _scaled_target(name, params=None):
    """The shipped target with gamma scaled by e^ORACLE_LOG_Z, and its log Z to match."""
    target = build_target(name, params or {})
    assert target.true_log_z == 0.0
    value, fused = target.log_unnorm, target.score_hvp

    def scaled_fused(x):
        val, score, hvp = fused(x)
        return val + ORACLE_LOG_Z, score, hvp

    target.log_unnorm = lambda x: value(x) + ORACLE_LOG_Z
    target.score_hvp = scaled_fused
    target.true_log_z = ORACLE_LOG_Z
    return target


def _oracle_rounding(n):
    # log Z and the ESS come from a log-sum-exp of n equal terms (log Z + log n),
    # less log n, and for the ESS an exp of such differences: at most 8
    # roundings, each of a value no larger than |log Z| + 2 log n
    return 8 * np.finfo(float).eps * (ORACLE_LOG_Z + 2 * math.log(n))


def _mode_criteria_bounds(n_modes, n):
    """The ranges of EMC and of EJS (bits) that n exact draws over K = n_modes
    cells of mass 1/K fall outside of with a chance below about 1e-6 each.

    With h the draws' cell histogram, to second order in h - 1/K both
    2n ln K (1 - EMC) = 2n KL(h || 1/K) and 8n ln 2 EJS = 8n JS(h, 1/K) (nats)
    are Pearson's statistic nK sum (h - 1/K)^2, whose law is chi^2(K - 1):
    E[EMC] = 1 - (K - 1)/(2n ln K) and E[EJS] = (K - 1)/(8n ln 2).  The ranges
    take its quantiles at 1e-9 on each side.  The slack covers two departures
    from that law: the exact statistic's upper tail is heavier (a simulated 0.999
    quantile lies up to 6% above chi^2's at n = 512), and the component overlap
    moves the cells' masses off 1/K, a noncentrality nK sum (p - 1/K)^2 of
    0.02 (MoG, K = 40) and 0.5 (MoS, K = 10) at n = 512, from 2e6 draws.
    """
    from scipy.stats import chi2

    lo, hi = chi2.ppf(1e-9, n_modes - 1), chi2.isf(1e-9, n_modes - 1)
    emc_scale, ejs_scale = 2 * n * math.log(n_modes), 8 * n * math.log(2.0)
    return (1 - hi / emc_scale, 1 - lo / emc_scale), (lo / ejs_scale, hi / ejs_scale)


def _assert_exact_answers(criteria, n, modes):
    tol = _oracle_rounding(n)
    assert criteria["elbo"] == ORACLE_LOG_Z and criteria["eubo"] == ORACLE_LOG_Z
    for direction in ("rev", "fwd"):
        assert abs(criteria[f"log_z_{direction}"] - ORACLE_LOG_Z) <= tol
        assert 0.0 <= criteria[f"delta_log_z_{direction}"] <= tol
        assert abs(criteria[f"ess_{direction}"] - 1.0) <= tol
    if modes is None:  # funnel: no mode model, no EMC or EJS
        assert criteria.get("emc") is None and criteria.get("ejs") is None
        return
    np.testing.assert_array_equal(modes.true_mode_probs, 1.0 / modes.n_modes)
    (emc_lo, emc_hi), (ejs_lo, ejs_hi) = _mode_criteria_bounds(modes.n_modes, n)
    assert emc_lo <= criteria["emc"] <= emc_hi
    assert ejs_lo <= criteria["ejs"] <= ejs_hi


@pytest.mark.parametrize("name", ["mog", "mos", "funnel"])
def test_exact_oracle_reads_the_known_answers(name, monkeypatch):
    # ELBO = EUBO = log Z, both log Z errors 0, both ESS 1, and EMC and EJS within
    # the multinomial error of 1 and 0, through evaluate_sampler and through the
    # emitted CSV row (MMD and W2 are not checked here)
    n = 512
    target = _scaled_target(name)
    exact = ExactDraws(target.exact_sampler(RngStream(1, 0), n))
    report = evaluate_sampler(ExactOracle(target), target, n, RngStream(2, 0), exact,
                              ipm_subsample=32, sinkhorn_iters=20)
    _assert_exact_answers({c: getattr(report, c) for c in MetricReport.CRITERIA}, n,
                          target.mode_model)

    def train(driver, target, target_name, seed, n_checkpoints, checkpoint_cb):
        for it in range(1, n_checkpoints + 1):
            checkpoint_cb(it, ExactOracle(target))

    monkeypatch.setattr(run_module, "build_target", _scaled_target)
    monkeypatch.setattr(MethodDriver, "train", train)
    record = run_experiment(parse_config(tiny_config(
        target={"name": name}, seeds=[0],
        protocol={"n_checkpoints": 3, "running_avg_len": 2, "eval_samples": n,
                  "ipm_subsample": 32, "sinkhorn_iters": 20})), clock=FakeClock())
    assert record.failures == []
    lines = render_checkpoint_csv(record).strip().splitlines()
    header = lines[0].split(",")
    assert len(lines) == 4
    for line in lines[1:]:
        row = dict(zip(header, line.split(","), strict=True))
        # six significant digits: each criterion within rounding of its answer prints as it
        assert {c: row[c] for c in ("elbo", "eubo", "log_z_rev", "log_z_fwd", "ess_rev",
                                    "ess_fwd")} == {"elbo": "1.75", "eubo": "1.75",
                                                    "log_z_rev": "1.75", "log_z_fwd": "1.75",
                                                    "ess_rev": "1", "ess_fwd": "1"}
        _assert_exact_answers({c: float(row[c]) for c in MetricReport.CRITERIA if row[c]}, n,
                              target.mode_model)


def test_exact_oracle_mmd_lies_inside_its_permutation_null():
    # under exact sampling the pooled 2k points are exchangeable, so the reported
    # pair's MMD^2 estimate ranks uniformly among those of random splits of the
    # pool, and lies outside all 999 of them with chance 2/1000.  The pooled-median
    # bandwidth is the same for every split, so each split's estimate is read off
    # one kernel matrix of the pool; the reported MMD is its root, clamped at 0
    from scipy.spatial.distance import cdist

    n, k, n_splits = 512, 128, 999
    target = _scaled_target("mog")
    exact = ExactDraws(target.exact_sampler(RngStream(1, 0), n))
    report = evaluate_sampler(ExactOracle(target), target, n, RngStream(2, 0), exact,
                              ipm_subsample=k, sinkhorn_iters=20)
    x = ExactOracle(target).sample_with_logweights(n, RngStream(2, 0))[0]
    pool = np.concatenate([x[:k], exact.points[:k]])
    d2 = cdist(pool, pool, "sqeuclidean")
    kernel = np.exp(-d2 / np.median(d2[np.triu_indices(2 * k, 1)]))
    np.fill_diagonal(kernel, 0.0)
    rng = RngStream(3, 0)
    orders = [np.arange(2 * k)] + [np.argsort(rng.uniform(size=2 * k)) for _ in range(n_splits)]
    first = np.zeros((2 * k, len(orders)))
    for j, order in enumerate(orders):
        first[order[:k], j] = 1.0
    second = 1.0 - first
    within = np.sum(first * (kernel @ first), axis=0) + np.sum(second * (kernel @ second), axis=0)
    cross = np.sum(first * (kernel @ second), axis=0)
    split_sq = within / (k * (k - 1)) - 2.0 * cross / (k * k)
    # the identity split is the reported pair: means of k^2 kernel entries, each in
    # [0, 1], round at about 1e-15, far inside 1e-12
    assert report.mmd ** 2 == pytest.approx(max(split_sq[0], 0.0), abs=1e-12)
    assert split_sq[1:].min() <= split_sq[0] <= split_sq[1:].max()


class ModeDroppedOracle:
    """Exact draws from the kept components S of an equal-weight unit-Gaussian mixture:
    the model q is the mixture over S, and each log weight is log gamma - log q."""

    def __init__(self, target, means, kept):
        self.target, self.means, self.kept = target, means, kept

    def log_q(self, x):
        from scipy.special import logsumexp

        d2 = np.sum((x[:, None, :] - self.means[self.kept]) ** 2, axis=2)
        return (logsumexp(-0.5 * d2, axis=1) - math.log(len(self.kept))
                - 0.5 * x.shape[1] * math.log(2.0 * math.pi))

    def sample_with_logweights(self, n, rng):
        comps = self.kept[rng.integers(len(self.kept), size=n)]
        x = self.means[comps] + rng.normal((n, self.target.dim))
        return x, self.target.log_unnorm(x) - self.log_q(x)

    def backward_logweights(self, y, rng, query=None):
        return (self.target.log_unnorm(y) if query is None else query[0]) - self.log_q(y)


def _mode_dropped_setup(dim):
    """(target scaled to log Z = ORACLE_LOG_Z, its K means, the kept components S):
    S holds the components whose mean has a negative first coordinate."""
    target = _scaled_target("mog", {"dim": dim})
    means = MixtureSpec(40, dim, "gaussian", -40.0, 40.0, 12).draw_means()
    np.testing.assert_array_equal(target.mode_model.cell(means), np.arange(40))
    return target, means, np.flatnonzero(means[:, 0] < 0)


def _assert_mode_dropped_answers(criteria, exact_criteria, y, means, kept, n, printed=0.0):
    """The mode-dropped oracle's known answers, from its criteria, the exact oracle's
    MMD and W2, and the exact draws y; `printed` is the relative rounding of the
    values when they are read back from the CSV.

    - ELBO = log Z - log(K/|S|) + mean(log(1 + r)), r the dropped components' share of
      gamma over the kept ones' at a draw.  That term is at least 0, and its mean over
      2e6 draws is 2.8e-9 at d=2 (the closest kept and dropped means lie 10.3 apart)
      and 0 at d=50 (180 apart), so by Markov's inequality it exceeds 1e-3 with a
      chance below 3e-6.  A log weight adds gamma's terms of size up to
      (|x|^2 + |mu|^2) / 2, below 4e4 (|mu|^2 <= 3.3e4 at d=50), so 32 roundings of
      1.1e-16 of that stay below 1e-9.
    - EMC = H(h) / log K for the histogram h of the draws' mode cells.  No draw of
      2e6 at d=2 fell outside S's cells, so 2n ln|S| (1 - H(h)/ln|S|) follows
      chi^2(|S| - 1), as in _mode_criteria_bounds with |S| cells, whose noncentrality
      is 0.022 (d=2) and 0.078 (d=50) at n = 512.
    - EUBO and the forward ESS: gamma(y)/Z lies between N_near/K and N_near, and q(y)
      between N_S/|S| and N_S, with N_near the density of y's nearest component and N_S
      that of its nearest kept one.  So each forward log weight less log Z lies in
      [gap - log K, gap + log|S|], gap = log(N_near/N_S), which bounds EUBO on both
      sides, and the ESS n^2 / (sum w sum 1/w) from above by n^2 exp(min of the upper
      ends - max of the lower ends).
    - MMD and W2 exceed the exact oracle's at the same k and seed.
    """
    k_all, k_kept = len(means), len(kept)
    rounding = 1e-9
    answer = ORACLE_LOG_Z - math.log(k_all / k_kept)
    tol = rounding + printed * abs(criteria["elbo"])
    assert answer - tol <= criteria["elbo"] <= answer + 1e-3 + tol
    (emc_lo, emc_hi), _ = _mode_criteria_bounds(k_kept, n)
    scale = math.log(k_kept) / math.log(k_all)
    assert emc_lo * scale * (1 - printed) <= criteria["emc"] <= emc_hi * scale * (1 + printed)

    d2 = np.sum((y[:, None, :] - means) ** 2, axis=2)
    gap = 0.5 * (d2[:, kept].min(axis=1) - d2.min(axis=1))
    lower, upper = gap - math.log(k_all), gap + math.log(k_kept)
    assert lower.mean() > 1.0  # the exact oracle's EUBO reads log Z
    tol = rounding + printed * abs(criteria["eubo"])
    assert lower.mean() - tol <= criteria["eubo"] - ORACLE_LOG_Z <= upper.mean() + tol
    log_ess_bound = 2 * math.log(n) + upper.min() - lower.max()
    assert log_ess_bound < math.log(1e-6)  # the exact oracle's forward ESS reads 1
    ess = criteria["ess_fwd"]
    assert ess == 0.0 or math.log(ess) <= log_ess_bound + 2 * printed
    assert criteria["mmd"] > exact_criteria["mmd"]
    assert criteria["w2"] > exact_criteria["w2"]


def _oracle_csv_rows(make_oracle, dim, n, k, monkeypatch):
    """The emitted CSV rows of one seed whose every checkpoint is make_oracle(target)."""

    def train(driver, target, target_name, seed, n_checkpoints, checkpoint_cb):
        for it in range(1, n_checkpoints + 1):
            checkpoint_cb(it, make_oracle(target))

    monkeypatch.setattr(run_module, "build_target", _scaled_target)
    monkeypatch.setattr(MethodDriver, "train", train)
    record = run_experiment(parse_config(tiny_config(
        target={"name": "mog", "dim": dim}, seeds=[0],
        protocol={"n_checkpoints": 3, "running_avg_len": 2, "eval_samples": n,
                  "ipm_subsample": k, "sinkhorn_iters": 300})), clock=FakeClock())
    assert record.failures == []
    lines = render_checkpoint_csv(record).strip().splitlines()
    header = lines[0].split(",")
    assert len(lines) == 4
    return [dict(zip(header, line.split(","), strict=True)) for line in lines[1:]]


@pytest.mark.parametrize("dim", [2, 50])
def test_mode_dropped_oracle_reads_the_known_answers(dim, monkeypatch):
    # exact draws from the components left of x_1 = 0 only: ELBO misses log Z by
    # log(K/|S|) and EMC reads log|S| / log K, EUBO and the forward ESS flag the
    # dropped mass, and MMD and W2 exceed the exact oracle's; through
    # evaluate_sampler and through the emitted CSV row
    n, k = 512, 128
    target, means, kept = _mode_dropped_setup(dim)
    exact = ExactDraws(target.exact_sampler(RngStream(1, 0), n))
    reports = [evaluate_sampler(sampler, target, n, RngStream(2, 0), exact, ipm_subsample=k,
                                sinkhorn_iters=300)
               for sampler in (ModeDroppedOracle(target, means, kept), ExactOracle(target))]
    dropped, exact_oracle = ({c: getattr(r, c) for c in MetricReport.CRITERIA} for r in reports)
    _assert_mode_dropped_answers(dropped, exact_oracle, exact.points, means, kept, n)

    dropped_rows = _oracle_csv_rows(lambda t: ModeDroppedOracle(t, means, kept), dim, n, k,
                                    monkeypatch)
    exact_rows = _oracle_csv_rows(ExactOracle, dim, n, k, monkeypatch)
    y = target.exact_sampler(RngStream(0, 20_000), n)  # the run's exact draws for seed 0
    for dropped_row, exact_row in zip(dropped_rows, exact_rows, strict=True):
        # six significant digits: a printed value is within 5e-6 of it, relatively
        _assert_mode_dropped_answers(
            {c: float(v) for c, v in dropped_row.items() if c in MetricReport.CRITERIA},
            {c: float(exact_row[c]) for c in ("mmd", "w2")}, y, means, kept, n, printed=5e-6)


# -------------------------------------------------------------- NFE accounting
def test_smc_nfe_closed_form_hmc():
    target = make_mog_target(2, seed=0)
    target.nfe.reset()
    n, big_t = 20, 8
    path = AnnealedPath.linear(DiagonalGaussian.isotropic(2, 60.0), target, big_t)
    smc_run(path, HmcConfig(leapfrog_steps=10, step_size_low=0.5, step_size_high=0.5),
            n, RngStream(1, 0))
    # the first reweight queries the proposal draws; later ones read the last move's query
    assert target.nfe.value == n * (1 + big_t * 10)


def test_smc_nfe_closed_form_mh_matches_hmc():
    target = make_mog_target(2, seed=0)
    target.nfe.reset()
    n, big_t = 16, 5
    path = AnnealedPath.linear(DiagonalGaussian.isotropic(2, 60.0), target, big_t)
    smc_run(path, MhConfig(n_substeps=10, scale_low=2.0, scale_high=2.0), n,
            RngStream(2, 0))
    assert target.nfe.value == n * (1 + big_t * 10)


NFE_KERNELS = {
    "hmc": HmcConfig(leapfrog_steps=4, step_size_low=0.5, step_size_high=0.5),
    "mh": MhConfig(n_substeps=4, scale_low=2.0, scale_high=2.0),
}  # L = 4 leapfrog steps or MH substeps per move


def _nfe_path(big_t):
    target = make_mog_target(2, seed=0)
    return AnnealedPath.linear(DiagonalGaussian.isotropic(2, 60.0), target, big_t)


def _nfe_flows(big_t):
    rng = RngStream(3, 0)
    return [AffineFlow(0.1 * rng.normal(2), 0.05 * rng.normal(2)) for _ in range(big_t)]


@pytest.mark.parametrize("kernel", sorted(NFE_KERNELS))
def test_backward_ais_nfe_closed_form(kernel):
    # one query at the target samples starts the sweep; each later increment
    # reads the last move's query, and no move follows the last increment
    n, big_t, steps = 12, 6, 4
    path = _nfe_path(big_t)
    samples = path.target.exact_sampler(RngStream(4, 0), n)
    path.target.nfe.reset()
    backward_transport_logweights(path, NFE_KERNELS[kernel], samples, RngStream(5, 0))
    assert path.target.nfe.value == n * (1 + (big_t - 1) * steps)


@pytest.mark.parametrize("kernel", sorted(NFE_KERNELS))
def test_craft_sweep_nfe_closed_form(kernel):
    # pi_t(T x) starts the move; pi_{t-1}(x) is read from the previous move
    n, big_t, steps = 12, 6, 4
    path = _nfe_path(big_t)
    path.target.nfe.reset()
    smc_run(path, NFE_KERNELS[kernel], n, RngStream(6, 0), flows=_nfe_flows(big_t))
    assert path.target.nfe.value == n * big_t * (1 + steps)


@pytest.mark.parametrize("kernel", sorted(NFE_KERNELS))
def test_craft_training_nfe_closed_form(kernel):
    # the flow update adds one query per temperature to the sweep's 1 + L
    n, big_t, steps, iterations = 12, 6, 4, 3
    path = _nfe_path(big_t)
    path.target.nfe.reset()
    craft_train(path, _nfe_flows(big_t), NFE_KERNELS[kernel], iterations, n, RngStream(7, 0))
    assert path.target.nfe.value == iterations * n * big_t * (2 + steps)


@pytest.mark.parametrize("kernel", sorted(NFE_KERNELS))
def test_craft_backward_nfe_closed_form(kernel):
    # pi_T at the target samples once, then pi_{t-1}(T^-1 x) and the move for
    # t = T..2; at t = 1 the increment reads pi_0 and no move follows
    n, big_t, steps = 12, 6, 4
    path = _nfe_path(big_t)
    samples = path.target.exact_sampler(RngStream(8, 0), n)
    path.target.nfe.reset()
    backward_transport_logweights(path, NFE_KERNELS[kernel], samples, RngStream(9, 0),
                                  flows=_nfe_flows(big_t))
    assert path.target.nfe.value == n * (1 + (big_t - 1) * (1 + steps))


# C checkpoints of n exact draws; T temperatures or hops, P particles, L
# leapfrog steps or MH substeps.  The target is queried at the exact draws at
# the first checkpoint only, so each later one costs n fewer than it did alone.
EVAL_C, EVAL_N, EVAL_T, EVAL_P, EVAL_L = 3, 32, 2, 16, 2
EVAL_METHODS = {
    "mfvi": {"name": "mfvi"},
    "dds": {"name": "dds", "iterations": 3, "n_steps": EVAL_T, "batch_size": 8,
            "sigma_max": 1.0},
    "craft_hmc": {"name": "craft", "iterations": 3, "n_steps": EVAL_T,
                  "particles": EVAL_P, "leapfrog_steps": EVAL_L},
    "craft_mh": {"name": "craft", "iterations": 3, "n_steps": EVAL_T, "particles": EVAL_P,
                 "kernel": "mh", "mh_substeps": EVAL_L},
}
# one checkpoint's queries: the forward criteria's sampling, then backward
# transport of the exact draws including the query at them
EVAL_NFE_PER_CHECKPOINT = {
    "mfvi": EVAL_N + EVAL_N,
    # guidance queries the score at every state, forward and backward
    "dds": 2 * EVAL_N * (EVAL_T + 1),
    # the flow-form sweep, then its backward run (see the CRAFT closed forms above)
    "craft_hmc": EVAL_P * EVAL_T * (1 + EVAL_L) + EVAL_N * (1 + (EVAL_T - 1) * (1 + EVAL_L)),
}
EVAL_NFE_PER_CHECKPOINT["craft_mh"] = EVAL_NFE_PER_CHECKPOINT["craft_hmc"]


def _eval_run(monkeypatch, method, wrap=None):
    """One seed of `method` on the 1-d Gaussian at EVAL_C checkpoints of EVAL_N
    exact draws; returns (the run's record, target queries made inside
    evaluate_sampler).  `wrap(evaluate)`, when given, replaces evaluate_sampler."""
    import samplebench.harness.run as run_mod

    evaluate = run_mod.evaluate_sampler if wrap is None else wrap(run_mod.evaluate_sampler)
    nfe = [0]

    def counted(sampler, target, *args, **kwargs):
        before = target.nfe.value
        try:
            return evaluate(sampler, target, *args, **kwargs)
        finally:
            nfe[0] += target.nfe.value - before

    monkeypatch.setattr(run_mod, "evaluate_sampler", counted)
    doc = tiny_config(seeds=[0], method=EVAL_METHODS[method],
                      protocol={"n_checkpoints": EVAL_C, "eval_samples": EVAL_N,
                                "ipm_subsample": 16})
    record = run_experiment(parse_config(doc), clock=FakeClock())
    assert not record.failures, record.failures
    assert len(record.seed_records[0].raw_reports) == EVAL_C
    return record, nfe[0]


@pytest.mark.parametrize("method", sorted(EVAL_METHODS))
def test_evaluation_queries_the_exact_draws_once_per_seed(monkeypatch, method):
    _, nfe_eval = _eval_run(monkeypatch, method)
    # mfvi: C n + n; dds: C 2n(T + 1) - (C - 1) n; craft: the closed forms, less (C - 1) n
    assert nfe_eval == EVAL_C * EVAL_NFE_PER_CHECKPOINT[method] - (EVAL_C - 1) * EVAL_N


class _FixedSampler:
    """Returns the same points at every call; nothing to transport backward."""

    def __init__(self, x):
        self.x = x

    def sample_with_logweights(self, n, rng):
        return self.x[:n], None


def test_evaluation_mode_criteria_equal_the_row_forms_bitwise():
    # samples spread over some of the 40 MoG modes, a cluster on one, and exact draws
    from samplebench.harness.evaluate import evaluate_sampler
    from test_metrics import _row_ejs, _row_emc

    target = make_mog_target(2)
    modes = target.mode_model
    exact = target.exact_sampler(RngStream(50, 0), 600)
    clouds = (exact, exact[modes.cell(exact) < 9], exact[:1] + RngStream(50, 1).normal((50, 2)))
    for x in clouds:
        report = evaluate_sampler(_FixedSampler(x), target, len(x), RngStream(50, 2), None, 0, 1)
        rows = modes.prob(x)
        assert np.float64(report.emc).tobytes() == np.float64(_row_emc(rows)).tobytes()
        assert (np.float64(report.ejs).tobytes()
                == np.float64(_row_ejs(rows, modes.true_mode_probs)).tobytes())


class _Unqueried:
    """A checkpoint's sampler whose backward path runs the public functions
    without a query, as each checkpoint did when it queried the exact draws itself."""

    def __init__(self, sampler, target):
        self.sampler, self.target = sampler, target
        self.sample_with_logweights = sampler.sample_with_logweights

    def backward_logweights(self, y, rng, _query):
        s = self.sampler
        if isinstance(s, MfviSampler):
            return self.target.query(y, score=False)[0] - s.q.log_density(y)
        if isinstance(s, SmcSampler):
            return backward_transport_logweights(s.path, s.kernel_cfg, y, rng, flows=s.flows)
        return simulate_backward_logweights(s.spec, s.target, y, rng)


@pytest.mark.parametrize("method", sorted(EVAL_METHODS))
def test_every_checkpoint_criterion_bitwise_equals_the_unqueried_backward_path(monkeypatch,
                                                                              method):
    references = []

    def wrap(evaluate):
        def both(sampler, target, n, rng, exact, **kwargs):
            rng_before = copy.deepcopy(rng)
            report = evaluate(sampler, target, n, rng, exact, **kwargs)
            references.append(evaluate(_Unqueried(sampler, target), target, n, rng_before,
                                       ExactDraws(exact.points), **kwargs))
            return report
        return both

    record, _ = _eval_run(monkeypatch, method, wrap)
    reports = record.seed_records[0].raw_reports
    names = MetricReport.CRITERIA + ("elbo_se", "eubo_se", "w2_converged")
    assert [[getattr(r, k) for k in names] for r in reports] == \
        [[getattr(r, k) for k in names] for r in references]
    assert all(r.eubo is not None and np.isfinite(r.eubo) for r in reports)


# ------------------------------------------------------------------- ablations
def test_ablation_kind_validation():
    config = parse_config(tiny_config())
    with pytest.raises(ConfigError, match="valid"):
        ablation_cells("nonexistent_kind", config)
    with pytest.raises(ConfigError, match="does not apply"):
        ablation_cells("smc_choices", config)  # mfvi is not smc


def test_ablation_grid_shapes():
    doc = tiny_config(method={"name": "mcd", "iterations": 5, "batch_size": 8})
    config = parse_config(doc)
    assert len(ablation_cells("langevin_choices", config)) == 8
    doc2 = tiny_config(method={"name": "dds", "iterations": 5, "batch_size": 8})
    assert len(ablation_cells("grad_network", parse_config(doc2))) == 2


def test_ablation_runs_and_emits(tmp_path):
    doc = tiny_config(
        target={"name": "gaussian", "dim": 1},
        method={"name": "mfvi", "iterations": 30, "batch_size": 16,
                "learning_rate": 0.05, "sigma0_grid": [1.0, 3.0]},
        seeds=[0],
        protocol={"n_checkpoints": 3, "eval_samples": 32, "ipm_subsample": 0},
    )
    from samplebench.harness import emit_ablation

    record = run_ablation("init_support", parse_config(doc), clock=FakeClock())
    assert len(record.cells) == 2
    paths = emit_ablation(record, tmp_path)
    text = paths["csv"].read_text()
    assert text.startswith("kind,cell,seed,best_checkpoint")
    assert "sigma0=1" in text and "sigma0=3" in text


def test_pretrain_base_ablation_pretrains_only_its_cell(monkeypatch):
    from samplebench.harness import ablate

    calls = []

    def stub(config):
        calls.append(dict(config.method_params))
        return [0.5], [-0.25]

    monkeypatch.setattr(ablate, "_pretrain_proposal", stub)
    doc = tiny_config(method={"name": "mcd", "iterations": 2, "batch_size": 8, "n_steps": 2},
                      protocol={"n_checkpoints": 1, "eval_samples": 32}, seeds=[0])
    record = run_ablation("pretrain_base", parse_config(doc), clock=FakeClock())
    assert [(label, overrides) for label, overrides, _ in record.cells] == [
        ("pretrained=0", {}), ("pretrained=1", {"pretrain_base": True})]
    assert len(calls) == 1 and "pretrain_base" not in calls[0]
    plain, pretrained = (run.config.method_params for _, _, run in record.cells)
    assert "proposal_mean" not in plain and "pretrain_base" not in plain
    assert (pretrained["proposal_mean"], pretrained["proposal_log_std"]) == ([0.5], [-0.25])
    assert "pretrain_base" not in pretrained
    assert all(not run.failures for _, _, run in record.cells)


# ------------------------------------------------------------------------- cli
def test_cli_run_and_exit_codes(tmp_path):
    from samplebench.cli import main

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(output_dir=str(tmp_path / "out"))))
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "mfvi_gaussian_checkpoints.csv").exists()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(tiny_config(schema_version=99)))
    assert main(["run", "--config", str(bad)]) == 2
    bad.write_text(json.dumps(tiny_config(protocol={"emc_variant": "aggregate"})))
    assert main(["run", "--config", str(bad)]) == 2
    bad.write_text(json.dumps(tiny_config(method={"name": "pis", "trainable_proposal": True})))
    assert main(["run", "--config", str(bad)]) == 2
    pis = tmp_path / "pis.json"
    pis.write_text(json.dumps(tiny_config(method={"name": "pis", "iterations": 2})))
    assert main(["ablate", "--config", str(pis), "--kind", "init_support"]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2


def test_cli_run_wrong_type_exits_2(tmp_path, capsys):
    from samplebench.cli import main

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(tiny_config(protocol={"eval_samples": "64"},
                                          output_dir=str(tmp_path / "out"))))
    assert main(["run", "--config", str(bad)]) == 2
    assert "eval_samples" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_metrics_checks_target_keys(tmp_path, capsys):
    from samplebench.cli import main

    path = tmp_path / "samples.csv"
    path.write_text("x_1,x_2,x_3\n0.1,0.2,0.3\n0.4,0.5,0.6\n")
    assert main(["metrics", "--samples", str(path), "--target", "brownian", "--dim", "3"]) == 2
    assert "unknown key(s) ['dim'] in target 'brownian'" in capsys.readouterr().err


def test_cli_metrics_subcommand(tmp_path, capsys):
    from samplebench.cli import main

    target = make_mog_target(2, seed=0)
    rng = RngStream(3, 0)
    x = target.exact_sampler(rng, 200)
    lw = np.zeros(200)
    path = tmp_path / "samples.csv"
    lines = ["x_1,x_2,log_w"] + [f"{a},{b},{w}" for (a, b), w in zip(x, lw)]
    path.write_text("\n".join(lines) + "\n")
    code = main(["metrics", "--samples", str(path), "--target", "mog", "--dim", "2",
                 "--target-seed", "0", "--ipm-samples", "64"])
    assert code == 0
    out = capsys.readouterr().out
    report = json.loads(out[out.index("{"):])
    assert report["elbo"] == 0.0
    assert 0.9 < report["emc"] <= 1.0  # exact samples cover the modes
    assert report["w2"] > 0.0
    assert isinstance(report["w2_converged"], bool)


@pytest.mark.parametrize("ipm_samples, code", [("1", 2), ("-3", 2), ("0", 0), ("2", 0)])
def test_cli_metrics_ipm_samples_takes_the_protocol_bound(tmp_path, capsys, ipm_samples, code):
    # 0 or at least 2, as the protocol's ipm_subsample; before, 1 exited 0 with MMD
    # and W2 missing, and -3 failed inside numpy
    from samplebench.cli import main

    x = make_mog_target(2).exact_sampler(RngStream(3, 0), 50)
    path = tmp_path / "samples.csv"
    path.write_text("\n".join(["x_1,x_2"] + [f"{a},{b}" for a, b in x]) + "\n")
    out = tmp_path / "report.json"
    assert main(["metrics", "--samples", str(path), "--target", "mog",
                 "--ipm-samples", ipm_samples, "--out", str(out)]) == code
    if code:
        assert "--ipm-samples" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert ("w2" in json.loads(out.read_text())) == (ipm_samples == "2")


def test_cli_metrics_default_mog_layout_is_the_run_layout(tmp_path, capsys):
    # without --target-seed the samples are scored against make_mog_target's
    # own layout, the one `samplebench run` builds
    from samplebench.cli import main

    x = make_mog_target(2).exact_sampler(RngStream(3, 0), 500)
    path = tmp_path / "samples.csv"
    path.write_text("\n".join(["x_1,x_2"] + [f"{a},{b}" for a, b in x]) + "\n")
    code = main(["metrics", "--samples", str(path), "--target", "mog", "--ipm-samples", "16"])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out[out.index("{"):])["emc"] > 0.95


def test_cli_metrics_header_only_csv_is_a_usage_error(tmp_path, capsys):
    from samplebench.cli import main

    path = tmp_path / "samples.csv"
    path.write_text("x_1,x_2,log_w\n")
    assert main(["metrics", "--samples", str(path), "--target", "mog"]) == 2
    assert "no data rows" in capsys.readouterr().err


@pytest.mark.parametrize("line, column, cell", [(3, 2, "nan"), (4, 3, "inf"), (2, 3, "-inf")])
def test_cli_metrics_rejects_a_cell_that_is_not_finite(tmp_path, capsys, line, column, cell):
    # before, a nan coordinate exited 0 with "mmd": NaN and "w2": NaN, which is not
    # JSON; a +inf log weight failed in log_sum_exp after a RuntimeWarning; and a
    # -inf one reported "elbo": -Infinity
    from samplebench.cli import main

    x = make_mog_target(2).exact_sampler(RngStream(3, 0), 4)
    rows = [["x_1", "x_2", "log_w"]] + [[f"{a}", f"{b}", "0.0"] for a, b in x]
    rows[line - 1][column - 1] = cell
    path = tmp_path / "samples.csv"
    path.write_text("\n".join(",".join(row) for row in rows) + "\n")
    out = tmp_path / "report.json"
    assert main(["metrics", "--samples", str(path), "--target", "mog", "--ipm-samples", "4",
                 "--out", str(out)]) == 2
    name = rows[0][column - 1]
    assert f"line {line}, column {column} ({name}) is {cell}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("x_1,x_2\n0.5,1.0\n3\n", "line 3, column 2 (x_2) is missing"),
    ("x_1,x_2\n0.5,1.0,2.0\n", "line 2, column 3 has no header"),
], ids=["short", "long"])
def test_cli_metrics_names_the_line_and_column_of_a_ragged_row(tmp_path, capsys, text, message):
    # before, numpy's "inhomogeneous shape" error named neither
    from samplebench.cli import main

    path = tmp_path / "samples.csv"
    path.write_text(text)
    assert main(["metrics", "--samples", str(path), "--target", "mog"]) == 2
    assert message in capsys.readouterr().err


def test_cli_metrics_names_the_line_and_column_of_a_cell_that_is_not_a_number(tmp_path, capsys):
    # before, the error was float's "could not convert string to float: 'abc'"
    from samplebench.cli import main

    path = tmp_path / "samples.csv"
    path.write_text("x_1,x_2,log_w\n0.5,1.0,0.0\n0.5,abc,0.0\n")
    assert main(["metrics", "--samples", str(path), "--target", "mog"]) == 2
    assert "line 3, column 2 (x_2) is 'abc', not a number" in capsys.readouterr().err


def test_cli_metrics_never_parses_a_column_it_does_not_read(tmp_path, capsys):
    # before, a text column beside x_1..x_d exited 2 with "line 2, column 3
    # (method) is 'smc', not a number"; now the report is the one without it
    from samplebench.cli import main

    x = make_mog_target(2).exact_sampler(RngStream(3, 0), 8)
    reports = []
    for name, text in (("plain", "x_1,x_2,log_w\n" + "".join(
            f"{a},{b},{0.1 * i}\n" for i, (a, b) in enumerate(x))),
                       ("text", "method,x_1,note,x_2,log_w\n" + "".join(
            f"smc,{a},,{b},{0.1 * i}\n" for i, (a, b) in enumerate(x)))):
        path, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        path.write_text(text)
        assert main(["metrics", "--samples", str(path), "--target", "mog", "--ipm-samples",
                     "4", "--out", str(out)]) == 0, capsys.readouterr().err
        reports.append(json.loads(out.read_text()))
    assert reports[0] == reports[1]
    assert reports[0]["elbo"] is not None  # the log-weight column was read


# ------------------------------------------------------------------- imports
def _run_python(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _unused_imports(path):
    """(line, name) of each name that the module at `path` imports and never reads.

    Names in its __all__, __future__ imports and lines marked `# noqa: F401` count as read.
    """
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or any(
                "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append((node.lineno, name))
    return unused


def test_no_module_imports_a_name_it_never_reads():
    paths = sorted(p for top in ("src", "tests", "demos") for p in (ROOT / top).rglob("*.py"))
    assert len(paths) > 30
    unused = {str(p.relative_to(ROOT)): found for p in paths if (found := _unused_imports(p))}
    assert unused == {}


def _target_callable_calls(path):
    """(line, name) of each call of a target callable that `TargetDensity.query` counts."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [(node.lineno, node.func.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("log_unnorm", "score_hvp", "grad_log_unnorm")]


def test_only_the_counted_query_calls_a_target_callable():
    # TargetDensity.query is the one way into a target, so no query goes uncounted;
    # outside targets/, no module calls the callables behind it
    pkg = SRC / "samplebench"
    paths = sorted(p for p in pkg.rglob("*.py") if p.parent.name != "targets")
    assert len(paths) > 20
    calls = {str(p.relative_to(SRC)): found for p in paths if (found := _target_callable_calls(p))}
    assert calls == {}


def test_harness_import_loads_no_scipy():
    # the harness, not the CLI: the CLI imports lazily, so importing it would pass vacuously
    loaded = _run_python(
        "import json, sys\n"
        "import samplebench.harness\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n")
    assert loaded == []


def test_run_without_scipy_loads_no_numpy_submodule_lazily(tmp_path):
    # scipy is a test dependency only, so a run must work where it cannot be imported;
    # numpy submodules imported on first use would land inside the timed run
    doc = tiny_config(target={"name": "mog", "dim": 2},
                      protocol={"n_checkpoints": 1, "eval_samples": 64, "ipm_subsample": 32},
                      seeds=[0], output_dir=str(tmp_path))
    added = _run_python(
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from samplebench.harness import parse_config, run_experiment\n"
        "before = set(sys.modules)\n"
        f"run_experiment(parse_config(json.loads({json.dumps(json.dumps(doc))})))\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    assert [m for m in added if m.startswith(("numpy.random", "numpy.ma"))] == []


def test_bench_instruments_wrap_mfvi_and_craft_runs():
    # perfbench patches names inside samplebench; run its probe and tracer over a
    # tiny MFVI, CRAFT, DDS and SMC experiment in a fresh process, so the patches stay there
    docs = [tiny_config(seeds=[0], protocol={"n_checkpoints": 2, "eval_samples": 32}),
            tiny_config(seeds=[0], method={"name": "craft", "iterations": 3, "n_steps": 2,
                                           "particles": 16, "leapfrog_steps": 2},
                        protocol={"n_checkpoints": 2, "eval_samples": 32}),
            tiny_config(seeds=[0], method={"name": "dds", "iterations": 3, "n_steps": 2,
                                           "batch_size": 8, "sigma_max": 1.0},
                        protocol={"n_checkpoints": 2, "eval_samples": 32}),
            tiny_config(seeds=[0], method={"name": "smc", "n_steps": 3, "particles": 16,
                                           "leapfrog_steps": 2},
                        protocol={"n_checkpoints": 2, "eval_samples": 32})]
    out = _run_python(
        "import json, sys\n"
        "from collections import Counter\n"
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
        "from tracing import Probe, Tracer, instrument\n"
        "import samplebench.harness.run as run_mod\n"
        "from samplebench.harness import parse_config, run_experiment\n"
        "probe, tracer = Probe(), Tracer()\n"
        "probe.install(run_mod)\n"
        "instrument(tracer)\n"
        "per_doc = []\n"
        f"for doc in json.loads({json.dumps(json.dumps(docs))}):\n"
        "    first, nfe_eval = len(tracer.spans), probe.nfe_eval\n"
        "    record = run_experiment(parse_config(doc))\n"
        "    assert not record.failures, record.failures\n"
        "    per_doc.append({'nfe_eval': probe.nfe_eval - nfe_eval,\n"
        "                    'spans': Counter(span[0] for span in tracer.spans[first:])})\n"
        "spans = tracer.spans\n"
        "def ancestors(i):\n"
        "    while spans[i][3] >= 0:\n"
        "        i = spans[i][3]\n"
        "        yield spans[i][0]\n"
        "def adam_under(name):\n"
        "    return sum(name in ancestors(i) for i, span in enumerate(spans)\n"
        "               if span[0] == 'numerics.adam_step')\n"
        "print(json.dumps({'first_train': probe.first_train,\n"
        "                  'adam_under_mfvi': adam_under('vi.mfvi_train'),\n"
        "                  'adam_under_dds': adam_under('diffusion.train_diffusion'),\n"
        "                  'spans': Counter(span[0] for span in spans),\n"
        "                  'smc': per_doc[-1]}))\n")
    assert out["first_train"] is not None
    assert out["adam_under_mfvi"] == 60  # one Adam step per MFVI iteration
    # DDS: three training steps, and at the marks [1, 3] a forward and a backward
    # simulation, each running the drift net once per hop
    assert out["adam_under_dds"] == 3  # one Adam step over every parameter per step
    spans = out["spans"]
    assert [spans[f"diffusion.{name}"] for name in (
        "train_diffusion", "forward_train", "forward_eval", "simulate_backward_logweights")
    ] == [1, 3, 2, 2]
    assert spans["numerics.drift_forward"] == 2 * (3 + 2 + 2)
    # SMC: one evaluation, a forward sweep of 16 particles and backward transport of
    # the 32 target samples over T = 3 temperatures with L = 2 leapfrog steps; only
    # the first reweight of each sweep queries the target, and the backward sweep
    # makes one move fewer
    smc = out["smc"]
    assert [smc["spans"][name] for name in (
        "sis.smc_run", "sis.backward_transport_logweights", "kernels.hmc_step")] == [1, 1, 3 + 2]
    assert smc["nfe_eval"] == 16 * (1 + 3 * 2) + 32 * (1 + (3 - 1) * 2)


def test_bench_tracer_counts_every_counted_query():
    # perfbench's tracer counts the points of the target callables it wraps; every
    # counted query goes through one of them, so its count is the target's NFE
    mcmc = {"name": "smc", "n_steps": 3, "particles": 16}
    docs = {
        "smc_hmc": tiny_config(seeds=[0], method={**mcmc, "leapfrog_steps": 2}),
        "smc_mh": tiny_config(seeds=[0], method={**mcmc, "kernel": "mh", "mh_substeps": 2}),
        "mfvi": tiny_config(seeds=[0]),
        "dds": tiny_config(seeds=[0], method={"name": "dds", "iterations": 3, "n_steps": 2,
                                              "batch_size": 8, "sigma_max": 1.0}),
    }
    for doc in docs.values():
        doc["protocol"].update(n_checkpoints=2, eval_samples=32)
    out = _run_python(
        "import json, sys\n"
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
        "from tracing import Tracer, instrument\n"
        "import samplebench.harness.run as run_mod\n"
        "from samplebench.harness import parse_config, run_experiment\n"
        "tracer = Tracer()\n"
        "instrument(tracer)\n"
        "traced_build, built = run_mod.build_target, []\n"
        "def build(*args):\n"
        "    built.append(traced_build(*args))\n"
        "    return built[-1]\n"
        "run_mod.build_target = build\n"
        "out = {}\n"
        f"for name, doc in json.loads({json.dumps(json.dumps(docs))}).items():\n"
        "    points, first = tracer.counts['targets.points'], len(built)\n"
        "    record = run_experiment(parse_config(doc))\n"
        "    assert not record.failures, record.failures\n"
        "    out[name] = [tracer.counts['targets.points'] - points,\n"
        "                 sum(target.nfe.value for target in built[first:])]\n"
        "print(json.dumps(out))\n")
    assert set(out) == set(docs)
    for name, (points, nfe) in out.items():
        assert nfe > 0 and points == nfe, name
