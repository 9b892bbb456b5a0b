"""Run configuration, reproducibility manifests, and seed derivation.

Configuration is an INI file with one section per pipeline stage; a
command line flag overrides one key of it, so the config a command reads,
flags included, is the one its manifest records. All randomness flows from
the single [run] seed through named per-stage sub-seeds, never from ambient
entropy.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import os
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Callable, Mapping

from . import __version__
from .corpus import PreprocessConfig, load_acronym_map, load_lexicon
from .errors import ValidationError

__all__ = [
    "RunConfig",
    "load_config",
    "derive_seed",
    "atomic_write",
    "atomic_write_text",
    "sha256_of",
    "RunManifest",
]

class RunConfig:
    """Typed access over the INI sections, resolved relative to its file."""

    def __init__(self, parser: configparser.ConfigParser, base_dir: Path):
        self._parser = parser
        self.base_dir = base_dir
        self.inputs: list[Path] = []  # every file input_path returned

    def get(self, section: str, key: str) -> str | None:
        """The key's value, or None when it is unset or empty."""
        return self._parser.get(section, key, fallback=None) or None

    def settings(self, section: str, **types: type) -> dict:
        """The keys named in ``types`` that ``section`` sets, each converted
        by its type. An unset key is left out, so the default of whatever
        takes these as keyword arguments applies."""
        found = {}
        for key, kind in types.items():
            value = self.get(section, key)
            if value is None:
                continue
            try:
                found[key] = kind(value)
                if kind is float and not math.isfinite(found[key]):
                    raise ValueError(value)
            except ValueError:
                what = "an integer" if kind is int else "a finite number"
                raise ValidationError(f"[{section}] {key} must be {what}, got {value!r}") from None
        return found

    def path(self, section: str, key: str) -> Path | None:
        """The key's path, relative to ``base_dir`` unless it is absolute."""
        value = self.get(section, key)
        return None if value is None else self.base_dir / value

    def input_path(self, section: str, key: str) -> Path | None:
        """The file a key names, or for ``[paths] templates`` the directory;
        None when the key is unset. A named path that does not exist raises
        FileNotFoundError, and a directory named by any other key
        IsADirectoryError. A file is added to ``inputs``, which the
        manifest lists."""
        resolved = self.path(section, key)
        if resolved is None:
            return None
        if not resolved.exists():
            raise FileNotFoundError(f"[{section}] {key}: no such file {resolved}")
        if resolved.is_dir() and (section, key) != ("paths", "templates"):
            raise IsADirectoryError(f"[{section}] {key}: {resolved} is a directory, not a file")
        if resolved.is_file():
            self.inputs.append(resolved)
        return resolved

    def require_path(self, section: str, key: str) -> Path:
        resolved = self.input_path(section, key)
        if resolved is None:
            raise ValidationError(f"config is missing [{section}] {key}")
        return resolved

    @property
    def seed(self) -> int:
        return self.settings("run", seed=int).get("seed", 0)

    @property
    def output_dir(self) -> Path:
        value = self.path("paths", "output_dir")
        return value if value is not None else self.base_dir / "out"

    def preprocess(self) -> PreprocessConfig:
        """The preprocessing this config sets."""
        resources: dict = {}
        for key, field, load in (("acronym_map", "acronyms", load_acronym_map),
                                 ("lexicon", "lexicon", load_lexicon)):
            path = self.input_path("preprocess", key)
            if path is not None:
                resources[field] = load(path)
        steps_value = self.get("preprocess", "steps")
        if steps_value is None:
            return PreprocessConfig(**resources)
        steps = [s.strip() for s in steps_value.split(",") if s.strip()]
        try:
            return PreprocessConfig.only(*steps, **resources)
        except ValueError as exc:
            raise ValidationError(f"[preprocess] {exc}") from exc

    def expects_keywords(self) -> tuple[str, ...]:
        value = self.get("corpus", "expects_keywords")
        if value is None:
            return ()
        return tuple(k.strip() for k in value.split(",") if k.strip())

    def snapshot(self) -> dict:
        return {
            section: dict(self._parser.items(section))
            for section in self._parser.sections()
        }


def load_config(path: str | Path,
                flags: Mapping[tuple[str, str], object] | None = None) -> RunConfig:
    """The config file with ``flags`` laid over it: each sets its
    ``(section, key)``, except one that is None or empty. A ``Path`` flag
    names an input relative to the working directory; it must exist and is
    stored absolute."""
    config_path = Path(path)
    if not config_path.is_file():
        raise FileNotFoundError(f"config file not found: {config_path}")
    parser = configparser.ConfigParser(interpolation=None)  # values are read as written
    try:
        parser.read(config_path, encoding="utf-8")
    except configparser.Error as exc:
        raise ValidationError(f"bad config file: {exc}") from exc
    for (section, key), value in (flags or {}).items():
        if value is None or value == "":
            continue
        if isinstance(value, Path):
            if not value.exists():
                raise FileNotFoundError(f"no such file: {value}")
            value = value.resolve()
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, str(value))
    return RunConfig(parser, config_path.parent.resolve())


def derive_seed(seed: int, stage: str) -> int:
    """Stable per-stage sub-seed from the single run seed."""
    digest = hashlib.blake2b(f"{seed}:{stage}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


# Mode 0666 lets the umask set the file's permissions, as for a plain create.
_TEMP_FLAGS = (os.O_WRONLY | os.O_CREAT | os.O_EXCL
               | getattr(os, "O_CLOEXEC", 0) | getattr(os, "O_BINARY", 0))


def atomic_write(path: str | Path, write: Callable[[IO], object], mode: str = "w") -> Path:
    """Write-temp-then-rename so readers never see a partial file: ``write``
    gets the temp file, opened in ``mode``, beside ``path``. The file gets
    the permissions ``open(path, "w")`` would give it (0666 less the umask)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    while True:
        tmp_name = target.parent / f".{target.name}.{os.urandom(6).hex()}"
        try:
            fd = os.open(tmp_name, _TEMP_FLAGS, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, mode, encoding=None if "b" in mode else "utf-8") as handle:
            write(handle)
        os.replace(tmp_name, target)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return target


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write-temp-then-rename so readers never see a partial file."""
    return atomic_write(path, lambda handle: handle.write(text))


def sha256_of(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


class RunManifest:
    """Reproducibility record: written before results, finalized after.

    Carries the config snapshot, the explicit seed, input checksums and,
    once the command finishes, output checksums.
    """

    def __init__(self, command: str, config: RunConfig, out_dir: Path):
        self.command = command
        self.path = out_dir / f"{command}_manifest.json"
        self._payload = {
            "command": command,
            "tool_version": __version__,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "seed": config.seed,
            "config": config.snapshot(),
            "inputs": {},
            "outputs": {},
        }

    def add_input(self, path: str | Path) -> None:
        self._payload["inputs"][str(path)] = sha256_of(path)

    def add_output(self, path: str | Path, data: bytes | None = None) -> None:
        """Record the sha256 of ``data``, the bytes just written to ``path``,
        or without it of the file at ``path``."""
        digest = sha256_of(path) if data is None else hashlib.sha256(data).hexdigest()
        self._payload["outputs"][str(path)] = digest

    def write(self) -> Path:
        return atomic_write_text(self.path, json.dumps(self._payload, indent=2, sort_keys=True))
