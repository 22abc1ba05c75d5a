import io
import re
from pathlib import Path
from typing import NamedTuple

import pytest

from seqevl import cli
from seqevl.maps import ParameterSchedule
from seqevl.mesh import graded_mesh


@pytest.fixture(scope="session")
def mesh1024():
    return graded_mesh(1024)


@pytest.fixture(scope="session")
def mesh512():
    return graded_mesh(512)


@pytest.fixture(scope="session")
def const01():
    return ParameterSchedule(cycle=(0.1,))


class CliRun(NamedTuple):
    """An in-process CLI run: its exit code, stdout and stderr."""

    code: int
    out: str
    err: str

    @property
    def run_dir(self) -> Path:  # the directory its `artifacts:` line names
        (line,) = [l for l in self.out.splitlines() if l.startswith("artifacts: ")]
        return Path(line.removeprefix("artifacts: "))

    @property
    def verdicts(self) -> dict:  # {check name: PASS / FAIL / INFO}
        return {name: status for status, name in
                re.findall(r"^\[(PASS|FAIL|INFO)\] (\S+):", self.out, re.M)}


@pytest.fixture
def run_cli(tmp_path):
    """`run_cli(*argv, config=None)` runs `seqevl.cli.main` in process; a
    config is written to tmp_path as `<kind>.toml` and passed as `--config`."""
    def run(*argv, config=None) -> CliRun:
        if config is not None:
            path = tmp_path / f"{config.kind}.toml"
            path.write_text(config.to_toml(), encoding="utf-8")
            argv = (*argv, "--config", str(path))
        out, err = io.StringIO(), io.StringIO()
        code = cli.main(argv, stdout=out, stderr=err)
        return CliRun(code, out.getvalue(), err.getvalue())
    return run
