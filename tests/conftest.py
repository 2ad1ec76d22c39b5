import json
import shutil

import pytest

from chocosim import cli


@pytest.fixture
def chocosim(tmp_path, capsys, monkeypatch):
    """``main(config, *flags, command="run")``: ``chocosim <command>`` on the
    config document, with ``--out`` unless the document gives ``out``, as
    ``(exit code, its one error: line or None)``, run in ``tmp_path``. It
    never prints a traceback, and an exit 1 prints one ``error:`` line and
    writes no output directory; a run's output is removed after it."""
    monkeypatch.chdir(tmp_path)  # where a relative out would be written
    parser = cli.build_parser()  # built once: a parse leaves it as it was
    monkeypatch.setattr(cli, "build_parser", lambda: parser)

    def main(config, *flags, command="run"):
        path, out = tmp_path / "config.json", tmp_path / "o"
        path.write_text(json.dumps(config))
        if isinstance(config, dict) and "out" in config:  # the flag would replace it
            out = tmp_path / str(config["out"])
        else:
            flags = ("--out", str(out), *flags)
        code = cli.main([command, "--config", str(path), *flags])
        err = capsys.readouterr().err
        # every line but argparse's usage, which may wrap indented
        lines = [line for line in err.splitlines() if not line.startswith(("usage:", " "))]
        assert "Traceback" not in err, err
        if code == 1:
            assert len(lines) == 1 and "error: " in lines[0] and not out.exists(), err
        shutil.rmtree(out, ignore_errors=True)  # the next call starts with none
        return code, (lines[0] if lines else None)
    return main
