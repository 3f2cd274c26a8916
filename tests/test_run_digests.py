"""Byte identity of every canned ``safedmp run`` output.

For each scenario under ``scenarios/`` and each method, ``safedmp learn``
fits a model to the scenario's demonstration (default options) and
``safedmp run`` executes it; the sha256 of each model file, ``_log.csv`` and
``_metrics.json`` must equal the one stored in ``tests/data/run_digests.json``.

Regenerate the stored digests (only for a deliberate behaviour change, to be
recorded in CHANGES.md) with::

    PYTHONPATH=src python tests/test_run_digests.py
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import pathlib
import sys
import tempfile

from safedmp import bench, cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "data" / "run_digests.json"


def run_digests(workdir: pathlib.Path) -> dict[str, str]:
    """sha256 of the files ``safedmp learn`` and ``safedmp run`` write for
    every canned demonstration and cell."""
    models = {}
    digests = {}
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for path in sorted((ROOT / "scenarios").glob("*.json")):
            source = bench.load_scenario(path).demo_source
            if source not in models:
                models[source] = workdir / f"model_{source.replace(':', '_')}.json"
                code = cli.main(["learn", "--demo", source,
                                 "--out", str(models[source])])
                assert code == 0, f"safedmp learn {source} exited {code}"
                digests[models[source].name] = hashlib.sha256(
                    models[source].read_bytes()).hexdigest()
            for method in bench.METHODS:
                prefix = workdir / f"{path.stem}_{method}"
                cli.main(["run", "--model", str(models[source]),
                          "--scenario", str(path), "--method", method,
                          "--out", str(prefix)])
                for suffix in ("_log.csv", "_metrics.json"):
                    out = prefix.with_name(prefix.name + suffix)
                    digests[out.name] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


def test_run_outputs_match_stored_digests(tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert len(expected) == 43
    assert run_digests(tmp_path) == expected


def test_generate_reproduces_scenario_files(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "generate", ROOT / "scenarios" / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    monkeypatch.setattr(generate, "OUT", tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        generate.main()
    committed = sorted((ROOT / "scenarios").glob("*.json"))
    assert sorted(p.name for p in tmp_path.iterdir()) == [p.name for p in committed]
    for path in committed:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_digests(pathlib.Path(tmp))
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"{len(digests)} digests written to {DIGESTS}", file=sys.stderr)
