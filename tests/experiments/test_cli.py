"""Command-line interface."""

import pytest

from repro.cli import main
from repro.sim.runner import clear_solo_cache


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_solo_cache()
    yield
    clear_solo_cache()


class TestCli:
    def test_figure1(self, capsys):
        assert main(["figure1", "--cycles", "6000"]) == 0
        out = capsys.readouterr().out
        assert "=== figure1" in out
        assert "vpr + art" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure99"])

    def test_seed_flag(self, capsys):
        assert main(["figure1", "--cycles", "6000", "--seed", "3"]) == 0
        assert "vpr alone" in capsys.readouterr().out

    def test_json_export(self, capsys, tmp_path):
        path = tmp_path / "figure1.json"
        assert main(["figure1", "--cycles", "6000", "--json", str(path)]) == 0
        import json

        payload = json.loads(path.read_text())
        assert payload[0]["figure"] == "figure1"
        rows = payload[0]["rows"]
        assert {r["configuration"] for r in rows} == {
            "vpr alone",
            "vpr + crafty",
            "vpr + art",
        }


class TestResultStoreFlag:
    @pytest.fixture(autouse=True)
    def _restore_process_store(self):
        from repro.sim.cache import configure_cache

        yield
        configure_cache()

    def test_cache_dir_names_the_store_results_queries(self, capsys, tmp_path):
        from repro.serve.store import ResultStore

        root = tmp_path / "lab"
        assert main(
            ["figure1", "--cycles", "6000", "--cache-dir", str(root / "store")]
        ) == 0
        store = ResultStore(root / "store")
        assert len(store) > 0
        assert store.problems == []
        # The serve family reads the same directory by its root.
        capsys.readouterr()
        assert main(["results", "--root", str(root)]) == 0
        assert "vpr+art" in capsys.readouterr().out

    def test_store_flag_is_gone(self):
        with pytest.raises(SystemExit):
            main(["figure1", "--store", "lab"])
