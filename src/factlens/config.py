"""Run configuration: one flat key-value file plus environment overrides.

The dataclasses below are the one statement of every setting. Every
run.cfg key is a RunConfig field; its type is the type of its default.
The analysis, precision and provider keys take their defaults from the
section classes (AnalysisConfig, PrecisionConfig, ProviderConfig), which
hold their checks; RunConfig.__post_init__ runs those checks with its own.
Secrets (the API key) are read from the environment only and never
serialized.

The size keys have upper bounds, so a mistyped value is a config error
rather than a MemoryError mid-run. embedding_dim stops at 2**16: provider
embeddings have a few thousand dimensions (3,072 for OpenAI's largest), and
a 128-text request of the hashed embedder then holds 64 MiB.
bootstrap_resamples stops at 10**7, whose resample medians take 80 MB;
analyses use 1,000 to 10,000.

An error in the file itself (a line that is not ``key = value``, a
trailing comment, an unknown key) names the file; an error in a value
names its key.
"""

from __future__ import annotations

import datetime as dt
import os
import re
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Mapping
from urllib.parse import urlsplit

ENV_PREFIX = "FACTLENS_"
API_KEY_ENV = "FACTLENS_API_KEY"


class ConfigError(Exception):
    pass


# The widest window any date can have: the span of the date type.
MAX_WINDOW_DAYS = (dt.date.max - dt.date.min).days
MAX_BOOTSTRAP_RESAMPLES = 10**7
MAX_EMBEDDING_DIM = 2**16


def http_url(url: str) -> bool:
    """True when url is an http:// or https:// URL naming a host (and, if
    it has one, a valid port): the only endpoints a live provider sends to.
    It must be printable ASCII without spaces, as it goes on the wire
    unquoted."""
    if not re.fullmatch(r"[!-~]+", url):
        return False
    try:
        parts = urlsplit(url)
        parts.port  # raises ValueError for a port that is not a number in range
    except ValueError:
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname)


@dataclass(frozen=True)
class AnalysisConfig:
    window_days: int = 15
    tau: float = 0.75
    bootstrap_resamples: int = 10000
    bootstrap_fraction: float = 0.2
    confidence_level: float = 0.95
    seed: int = 0

    def __post_init__(self) -> None:
        if self.window_days < 0:
            raise ConfigError("window_days: must be >= 0")
        if self.window_days > MAX_WINDOW_DAYS:
            raise ConfigError(f"window_days: must be <= {MAX_WINDOW_DAYS}")
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError("tau: must be in [0, 1]")
        if self.bootstrap_resamples < 1:
            raise ConfigError("bootstrap_resamples: must be >= 1")
        if self.bootstrap_resamples > MAX_BOOTSTRAP_RESAMPLES:
            raise ConfigError(f"bootstrap_resamples: must be <= {MAX_BOOTSTRAP_RESAMPLES}")
        if not 0.0 < self.bootstrap_fraction <= 1.0:
            raise ConfigError("bootstrap_fraction: must be in (0, 1]")
        if not 0.0 < self.confidence_level < 1.0:
            raise ConfigError("confidence_level: must be in (0, 1)")


@dataclass(frozen=True)
class PrecisionConfig:
    """Per-class tag precision; the negative class defaults to 0.706."""

    positive: float = 1.0
    negative: float = 0.706

    def __post_init__(self) -> None:
        for name in ("positive", "negative"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"precision_{name}: must be in [0, 1]")


@dataclass(frozen=True)
class ProviderConfig:
    endpoint: str = ""
    model_name: str = "gpt-3.5-turbo"
    max_retries: int = 3
    rate_limit: float = 5.0
    cache_dir: Path | None = None

    def __post_init__(self) -> None:
        # Named by their run.cfg keys; written so that NaN fails too.
        if not self.max_retries >= 0:
            raise ValueError("provider_max_retries: must be >= 0")
        if not self.rate_limit > 0:
            raise ValueError("provider_rate_limit: must be > 0")


@dataclass(frozen=True)
class RunConfig:
    window_days: int = AnalysisConfig.window_days
    tau: float = AnalysisConfig.tau
    bootstrap_resamples: int = AnalysisConfig.bootstrap_resamples
    bootstrap_fraction: float = AnalysisConfig.bootstrap_fraction
    confidence_level: float = AnalysisConfig.confidence_level
    seed: int = AnalysisConfig.seed
    precision_positive: float = PrecisionConfig.positive
    precision_negative: float = PrecisionConfig.negative
    top_k_entities: int = 100
    top_k_polarity: int = 5
    min_support: int = 10
    date_from: dt.date = dt.date(2018, 1, 1)
    date_to: dt.date = dt.date(2023, 12, 31)
    provider_kind: str = "synthetic"  # synthetic | fixtures | http
    provider_endpoint: str = ""
    provider_model: str = ProviderConfig.model_name
    provider_max_retries: int = ProviderConfig.max_retries
    provider_rate_limit: float = ProviderConfig.rate_limit
    provider_fixtures_dir: str = ""
    embedding_kind: str = "hashed"  # hashed | http
    embedding_endpoint: str = ""
    embedding_dim: int = 64
    cache_dir: str = "cache"
    aliases_file: str = ""
    input_file: str = ""
    api_key: str | None = None  # env only; never serialized

    def __post_init__(self) -> None:
        try:  # the sections' checks; AnalysisConfig's raise ConfigError themselves
            self.analysis, self.precisions, self.provider_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for key in ("top_k_entities", "top_k_polarity", "min_support", "embedding_dim"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key}: must be >= 1")
        if self.embedding_dim > MAX_EMBEDDING_DIM:
            raise ConfigError(f"embedding_dim: must be <= {MAX_EMBEDDING_DIM}")
        if not self.cache_dir:  # else the cache fills the working directory
            raise ConfigError("cache_dir: must not be empty")
        if self.date_from > self.date_to:
            raise ConfigError("date_from: must not be after date_to")
        if self.provider_kind not in ("synthetic", "fixtures", "http"):
            raise ConfigError(f"provider_kind: unknown kind {self.provider_kind!r}")
        if self.embedding_kind not in ("hashed", "http"):
            raise ConfigError(f"embedding_kind: unknown kind {self.embedding_kind!r}")
        if self.provider_kind == "http" and not self.provider_endpoint:
            raise ConfigError("provider_endpoint: required when provider_kind = http")
        if self.provider_kind == "fixtures" and not self.provider_fixtures_dir:
            raise ConfigError("provider_fixtures_dir: required when provider_kind = fixtures")
        if self.embedding_kind == "http" and not self.embedding_endpoint:
            raise ConfigError("embedding_endpoint: required when embedding_kind = http")
        for key in ("provider_endpoint", "embedding_endpoint"):
            if getattr(self, key) and not http_url(getattr(self, key)):
                raise ConfigError(f"{key}: must be an http:// or https:// URL")

    @property
    def analysis(self) -> AnalysisConfig:
        return AnalysisConfig(
            self.window_days, self.tau, self.bootstrap_resamples, self.bootstrap_fraction,
            self.confidence_level, self.seed,
        )

    @property
    def precisions(self) -> PrecisionConfig:
        return PrecisionConfig(self.precision_positive, self.precision_negative)

    def provider_config(self) -> ProviderConfig:
        return ProviderConfig(
            endpoint=self.provider_endpoint,
            model_name=self.provider_model,
            max_retries=self.provider_max_retries,
            rate_limit=self.provider_rate_limit,
            cache_dir=Path(self.cache_dir),
        )


# run.cfg keys, in field order.
_KEYS = tuple(f.name for f in fields(RunConfig) if f.name != "api_key")


def settings(cfg: RunConfig) -> dict[str, object]:
    """Each run.cfg key with its value in cfg."""
    return {key: getattr(cfg, key) for key in _KEYS}


DEFAULTS = settings(RunConfig())


_DATE = re.compile("[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_date(text: str) -> dt.date:
    """The date written YYYY-MM-DD in text, exactly four, two and two ASCII
    digits; anything else is a ValueError. So one rule holds on every Python:
    from 3.11 on, date.fromisoformat alone also reads 20200601 and 2020-W23-1."""
    if not _DATE.fullmatch(text):
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return dt.date.fromisoformat(text)


def _parse_value(key: str, raw: str) -> object:
    """raw as the type of key's default."""
    kind = type(DEFAULTS[key])
    try:
        return parse_date(raw) if kind is dt.date else kind(raw)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {kind.__name__}") from None


def parse_config_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines; a line starting with '#' is a comment. A
    '#' after a space or tab is an error (a comment takes a line of its
    own), so it never joins a value; a key set twice is an error naming
    both lines."""
    values: dict[str, str] = {}
    set_on: dict[str, int] = {}  # key -> the line that set it
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'key = value'")
        if re.search(r"[ \t]#", stripped):
            raise ConfigError(f"line {line_no}: a comment must take a line of its own")
        key, _, value = (part.strip() for part in stripped.partition("="))
        if key in set_on:
            raise ConfigError(f"line {line_no}: {key!r} is already set on line {set_on[key]}")
        set_on[key] = line_no
        values[key] = value
    return values


def load_config(
    path: str | Path | None = None, env: Mapping[str, str] | None = None
) -> RunConfig:
    """Load, override from the environment, and validate the run config."""
    env = os.environ if env is None else env
    values: dict[str, str] = {}
    if path is not None:
        p = Path(path)
        try:
            values = parse_config_text(p.read_text(encoding="utf-8-sig"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {p}: {exc}") from exc
        except ConfigError as exc:
            raise ConfigError(f"{p}: {exc}") from None
    for env_key, env_value in env.items():
        if env_key == API_KEY_ENV or not env_key.startswith(ENV_PREFIX):
            continue
        key = env_key[len(ENV_PREFIX) :].lower()
        if key in _KEYS:
            values[key] = env_value

    unknown = sorted(set(values) - set(_KEYS))  # environment keys are all known
    if unknown:
        raise ConfigError(f"{path}: unknown config key(s): {', '.join(unknown)}")
    return replace(
        RunConfig(api_key=env.get(API_KEY_ENV)),
        **{key: _parse_value(key, raw) for key, raw in values.items()},
    )


def serialize_config(cfg: RunConfig) -> str:
    """Effective config as sorted `key = value` lines (API key excluded)."""
    return "".join(f"{key} = {value}\n" for key, value in sorted(settings(cfg).items()))
