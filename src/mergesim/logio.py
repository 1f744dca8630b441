"""Atomic text output and trajectory-file parsing; both fail as ConfigError."""

from contextlib import contextmanager
import math
import os

from .config import ConfigError, check, check_id, parse_text
from .world import TRAJECTORY_COLUMNS

# The columns read_trajectory parses as floats; each must be finite.
FLOAT_COLUMNS = ("t", "x_lat", "y_long", "v", "theta", "i_col")
# The type read_trajectory gives each column, in TRAJECTORY_COLUMNS order.
_KINDS = tuple(float if name in FLOAT_COLUMNS else int if name == "lane"
               else str for name in TRAJECTORY_COLUMNS)


@contextmanager
def open_atomic(path: str):
    """A text handle onto a temp file beside `path`, renamed onto it when
    the with-body ends, so readers never see a partial file; on any
    exception, also one raised mid-stream, the temp file is removed.
    The file gets the mode open() gives a new file, 0o666 less the umask.
    A path that cannot be written raises ConfigError naming it."""
    directory = os.path.dirname(os.path.abspath(path))
    # Not tempfile.mkstemp: its 0o600 would survive the rename.
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    try:
        os.makedirs(directory, exist_ok=True)
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # names the part of the path in the way
        raise ConfigError(f"cannot write {path}: {exc}")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}")
        raise


def write_atomic(path: str, text: str) -> None:
    """Write `text` to `path` through open_atomic."""
    with open_atomic(path) as fh:
        fh.write(text)


def read_trajectory(path: str):
    """Rows of a trajectory CSV as dicts with typed fields.  A file that
    cannot be read as text, or a malformed line or field, raises
    ConfigError "trajectory file <path>: ..." naming the line (and the
    column) at fault; an id must pass check_id."""
    def line_error(number, message):
        return ConfigError(f"trajectory file {path}: line {number}: {message}")

    rows = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"trajectory file {path}: cannot read ({exc})")
    if not lines:
        raise line_error(1, "empty file")
    header = lines[0].split(",")
    if tuple(header) != TRAJECTORY_COLUMNS:
        raise line_error(1, f"unexpected header {lines[0]!r}")
    for number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(TRAJECTORY_COLUMNS):
            raise line_error(number, f"expected {len(TRAJECTORY_COLUMNS)} "
                             f"fields, got {len(parts)}")
        row = {}
        try:
            for name, kind, part in zip(TRAJECTORY_COLUMNS, _KINDS, parts):
                try:
                    row[name] = value = kind(part)
                    if kind is float and not math.isfinite(value):
                        raise ValueError
                except ValueError:  # check() says what is wrong with it
                    check(name, parse_text(part, kind), kind)
            check_id("id", row["id"])
        except ConfigError as exc:
            raise line_error(number, exc)
        rows.append(row)
    return rows
