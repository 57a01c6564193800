"""Config fuzz: every leaf of the shipped occlusion_transfer.yaml and
two_class.yaml, one at a time, set to each value of a fixed table of hostile
values, through `hexplane train` in-process, and every leaf of
occlusion_transfer.yaml also through `hexplane eval` and `hexplane project`.
Two leaves the shipped files leave unset, `planes.xy_top.extent` and
`planes.xy_top.depth_ref`, are fuzzed too. Each run must end in a documented
exit code (0 ok, 1 validation, 2 numerical) with no traceback and no warning,
and an exit 1 must say `error: config:` and name the leaf by its dotted key.

The base run is the shipped config at 300 points and 2 steps, so that the
cases that validate also train, project and evaluate; eval reads the base
run's checkpoint and project the base scene saved. No value in the table
asks for a large allocation: a plane height of 1e9 would build its raster.
"""

import copy
import warnings
from pathlib import Path

import pytest
import yaml

from hexplane import cli

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SHIPPED = CONFIGS / "occlusion_transfer.yaml"

# [1, 0, 0, 1] is a list of numbers that no list-valued leaf takes: a
# degenerate extent, a size of the wrong length, a zero encoder width
HOSTILE = [0, -1, 3, 0.5, 1e300, -1e300, 1e-300, True, "x", [], [1, 0, 0, 1], None,
           {"a": 1}]
UNSET = [("planes", "xy_top", "extent"), ("planes", "xy_top", "depth_ref")]


def leaves(tree, path=()):
    """Paths of the tree's leaves: every value that is not a mapping, a list
    of scalars counting as one leaf, and a list of mappings read through."""
    for key, value in tree.items():
        here = path + (key,)
        if isinstance(value, dict):
            yield from leaves(value, here)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for i, item in enumerate(value):
                yield from leaves(item, here + (i,))
        else:
            yield here


def dotted(path):
    out = ""
    for part in path:
        out += f"[{part}]" if isinstance(part, int) else f".{part}" if out else part
    return out


def base_tree(shipped):
    tree = yaml.safe_load(shipped.read_text())
    tree["output_dir"] = "out"
    tree["scene"]["num_points"] = 300
    tree["training"]["steps"] = 2
    return tree


def fuzz(shipped, tmp_path, monkeypatch, capsys,
         argv=lambda config: ["train", "--config", config]):
    """Run every (leaf, hostile value) case of `shipped`, and of `UNSET`,
    through the command `argv` builds from the case's config path; assert
    that each ends as the module docstring says, and that the table reaches
    both sides of validation."""
    monkeypatch.chdir(tmp_path)
    base = base_tree(shipped)
    shipped_paths = list(leaves(yaml.safe_load(shipped.read_text())))
    paths = shipped_paths + [path for path in UNSET if path not in shipped_paths]
    failures, exits = [], {0: 0, 1: 0, 2: 0}
    for path in paths:
        for value in HOSTILE:
            tree = copy.deepcopy(base)
            node = tree
            for part in path[:-1]:
                node = node[part] if isinstance(part, int) else node.setdefault(part, {})
            node[path[-1]] = value
            config = tmp_path / "fuzz.yaml"
            config.write_text(yaml.safe_dump(tree))
            case = f"{dotted(path)}: {value!r}"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    code = cli.main(argv(str(config)))
                except Exception as exc:  # a traceback out of the CLI
                    failures.append(f"{case}: raised {type(exc).__name__}: {exc}")
                    continue
            err = capsys.readouterr().err
            if caught:
                failures.append(f"{case}: warned {caught[0].category.__name__}: "
                                f"{caught[0].message}")
            if code not in exits:
                failures.append(f"{case}: exit {code}")
                continue
            exits[code] += 1
            named = err.startswith("error: config:") and dotted(path) in err
            if code == 1 and not named:
                failures.append(f"{case}: exit 1 says {err.strip()!r}")
    assert not failures, "\n".join(failures)
    assert exits[0] and exits[1], exits
    return shipped_paths


def test_every_leaf_takes_every_hostile_value(tmp_path, monkeypatch, capsys):
    assert len(fuzz(SHIPPED, tmp_path, monkeypatch, capsys)) > 30


def test_every_two_class_leaf_takes_every_hostile_value(tmp_path, monkeypatch, capsys):
    # a synth recipe of seed, point count, class count and room, and no eval scene
    assert len(fuzz(CONFIGS / "two_class.yaml", tmp_path, monkeypatch, capsys)) > 20


@pytest.mark.parametrize("path", [("scene", "primitives", 0, "center"),
                                  ("planes", "cylindrical", "fov_up_deg")],
                         ids=dotted)
def test_leaves_reach_into_lists_and_planes(path):
    assert path in set(leaves(yaml.safe_load(SHIPPED.read_text())))


def test_eval_and_project_take_every_hostile_value(tmp_path, monkeypatch, capsys):
    # eval reads the checkpoint of the 2-step base run, project a saved cloud
    monkeypatch.chdir(tmp_path)
    base = tmp_path / "base.yaml"
    base.write_text(yaml.safe_dump(base_tree(SHIPPED)))
    assert cli.main(["train", "--config", str(base)]) == 0
    assert cli.main(["synth", "--config", str(base), "--out", "cloud.bin"]) == 0
    checkpoint, cloud = str(tmp_path / "out" / "checkpoint.bin"), str(tmp_path / "cloud.bin")
    capsys.readouterr()
    fuzz(SHIPPED, tmp_path, monkeypatch, capsys,
         lambda config: ["eval", "--config", config, "--checkpoint", checkpoint])
    fuzz(SHIPPED, tmp_path, monkeypatch, capsys,
         lambda config: ["project", cloud, "--config", config, "--out-dir", "planes"])
