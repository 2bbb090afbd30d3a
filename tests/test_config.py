import datetime as dt
from dataclasses import replace

import pytest

from factlens.config import (
    DEFAULTS,
    AnalysisConfig,
    ConfigError,
    RunConfig,
    load_config,
    serialize_config,
)
from factlens.providers import HttpChatProvider, HttpEmbeddingProvider, ProviderConfig


def test_empty_file_gives_reference_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    cfg = load_config(path, env={})
    assert cfg.analysis.window_days == 15
    assert cfg.analysis.tau == 0.75
    assert cfg.analysis.bootstrap_resamples == 10000
    assert cfg.analysis.bootstrap_fraction == 0.2
    assert cfg.analysis.confidence_level == 0.95
    assert cfg.top_k_entities == 100
    assert cfg.top_k_polarity == 5
    assert cfg.precisions.positive == 1.0
    assert cfg.precisions.negative == 0.706
    assert cfg.precisions.neutral == 1.0
    assert cfg.date_from == dt.date(2018, 1, 1)
    assert cfg.date_to == dt.date(2023, 12, 31)


def test_missing_path_gives_defaults():
    assert load_config(None, env={}) == load_config(None, env={})


def test_invalid_tau_names_the_field(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("tau = 1.5\n")
    with pytest.raises(ConfigError, match="tau"):
        load_config(path, env={})


def test_unknown_key_is_fatal(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("windowdays = 10\n")
    with pytest.raises(ConfigError, match="windowdays"):
        load_config(path, env={})


def test_unparseable_value_names_the_field(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("bootstrap_resamples = lots\n")
    with pytest.raises(ConfigError, match="bootstrap_resamples"):
        load_config(path, env={})


def test_env_override_replaces_only_that_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("provider_endpoint = http://file-endpoint\ntau = 0.5\n")
    cfg = load_config(path, env={"FACTLENS_PROVIDER_ENDPOINT": "http://env-endpoint"})
    assert cfg.provider_endpoint == "http://env-endpoint"
    assert cfg.analysis.tau == 0.5


def test_api_key_comes_from_env_and_never_serializes(tmp_path):
    cfg = load_config(None, env={"FACTLENS_API_KEY": "sekret"})
    assert cfg.api_key == "sekret"
    assert "sekret" not in serialize_config(cfg)
    assert "api_key" not in serialize_config(cfg)


def test_round_trip_fixed_point(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "window_days = 10\ntau = 0.6\nseed = 42\nprovider_model = other-model\n"
        "date_from = 2019-02-03\nmin_support = 4\n"
    )
    cfg = load_config(path, env={})
    reserialized = tmp_path / "round.cfg"
    reserialized.write_text(serialize_config(cfg))
    assert load_config(reserialized, env={}) == cfg


def test_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# a comment\n\nseed = 9\n")
    assert load_config(path, env={}).analysis.seed == 9


def test_http_kinds_require_endpoints(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("provider_kind = http\n")
    with pytest.raises(ConfigError, match="provider_endpoint"):
        load_config(path, env={})
    path.write_text("embedding_kind = http\n")
    with pytest.raises(ConfigError, match="embedding_endpoint"):
        load_config(path, env={})
    path.write_text("provider_kind = fixtures\n")
    with pytest.raises(ConfigError, match="provider_fixtures_dir"):
        load_config(path, env={})


NOT_HTTP_URLS = {
    "no-scheme": "localhost:8080/chat",
    "file": "file:///etc/passwd",
    "ftp": "ftp://example.org/chat",
    "no-host": "http:///chat",
    "bad-port": "http://localhost:99999/chat",
    "space": "http://localhost:8080/my chat",
    "non-ascii": "http://localhost:8080/caf\u00e9",
    "control-character": "http://localhost:8080/chat\x01",
}


@pytest.mark.parametrize("url", NOT_HTTP_URLS.values(), ids=NOT_HTTP_URLS.keys())
@pytest.mark.parametrize("key, kind", [("provider_endpoint", "provider_kind"),
                                       ("embedding_endpoint", "embedding_kind")])
def test_endpoint_that_is_not_an_http_url_is_rejected(url, key, kind):
    message = f"^{key}: must be an http:// or https:// URL$"
    with pytest.raises(ConfigError, match=message):
        RunConfig(**{kind: "http", key: url})
    with pytest.raises(ConfigError, match=message):  # checked whatever the kind
        RunConfig(**{key: url})
    with pytest.raises(ValueError, match="needs an http:// or https:// endpoint"):
        if key == "provider_endpoint":
            HttpChatProvider(ProviderConfig(endpoint=url))
        else:
            HttpEmbeddingProvider(url, dim=4)


def test_http_and_https_endpoints_are_accepted():
    for url in ("http://127.0.0.1:8080/chat", "https://api.example.org/v1/chat", "HTTP://[::1]/"):
        cfg = RunConfig(provider_kind="http", provider_endpoint=url,
                        embedding_kind="http", embedding_endpoint=url)
        HttpChatProvider(cfg.provider_config())
        HttpEmbeddingProvider(cfg.embedding_endpoint, dim=4)


def test_analysis_config_validation_direct():
    with pytest.raises(ConfigError):
        AnalysisConfig(window_days=-1)
    with pytest.raises(ConfigError, match=r"^window_days: must be <= 3652058$"):
        AnalysisConfig(window_days=10**23)
    assert AnalysisConfig(window_days=3652058).window_days == 3652058
    with pytest.raises(ConfigError):
        AnalysisConfig(bootstrap_fraction=0.0)
    with pytest.raises(ConfigError):
        AnalysisConfig(confidence_level=1.0)


def test_date_order_validated(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("date_from = 2022-01-01\ndate_to = 2020-01-01\n")
    with pytest.raises(ConfigError, match="date_from"):
        load_config(path, env={})


@pytest.mark.parametrize(
    "line, key",
    [
        ("provider_rate_limit = nan", "provider_rate_limit"),
        ("provider_rate_limit = 0", "provider_rate_limit"),
        ("provider_rate_limit = -1", "provider_rate_limit"),
        ("provider_max_retries = -1", "provider_max_retries"),
    ],
)
def test_bad_provider_settings_name_the_key(tmp_path, line, key):
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n")
    with pytest.raises(ConfigError, match=f"^{key}: must be"):
        load_config(path, env={})


def test_provider_checks_live_in_provider_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("provider_rate_limit = inf\n")
    assert load_config(path, env={}).provider_config().rate_limit == float("inf")
    with pytest.raises(ValueError, match="provider_rate_limit"):
        ProviderConfig(rate_limit=float("nan"))


@pytest.mark.parametrize(
    "line, message",
    [
        ("embedding_dim = 1000000000000000", "embedding_dim: must be <= 65536"),
        ("embedding_dim = 65537", "embedding_dim: must be <= 65536"),
        ("bootstrap_resamples = 10000001", "bootstrap_resamples: must be <= 10000000"),
    ],
)
def test_size_keys_are_bounded(tmp_path, line, message):
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n")
    with pytest.raises(ConfigError, match=message):
        load_config(path, env={})


def test_size_key_bounds_admit_real_sizes(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("embedding_dim = 65536\nbootstrap_resamples = 10000000\n")
    cfg = load_config(path, env={})
    assert (cfg.embedding_dim, cfg.analysis.bootstrap_resamples) == (65536, 10**7)


@pytest.mark.parametrize("text", ["tau\n", "windowdays = 10\n"])
def test_errors_in_the_file_itself_name_the_file(tmp_path, text):
    path = tmp_path / "named.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"^{path}: "):
        load_config(path, env={})


# serialize_config(RunConfig()): every run.cfg key, in order, with its default.
DEFAULT_LINES = (
    "aliases_file = ",
    "bootstrap_fraction = 0.2",
    "bootstrap_resamples = 10000",
    "cache_dir = cache",
    "confidence_level = 0.95",
    "date_from = 2018-01-01",
    "date_to = 2023-12-31",
    "embedding_dim = 64",
    "embedding_endpoint = ",
    "embedding_kind = hashed",
    "input_file = ",
    "min_support = 10",
    "precision_negative = 0.706",
    "precision_neutral = 1.0",
    "precision_positive = 1.0",
    "provider_endpoint = ",
    "provider_fixtures_dir = ",
    "provider_kind = synthetic",
    "provider_max_retries = 3",
    "provider_model = gpt-3.5-turbo",
    "provider_rate_limit = 5.0",
    "seed = 0",
    "tau = 0.75",
    "top_k_entities = 100",
    "top_k_polarity = 5",
    "window_days = 15",
)


def test_run_cfg_keys_and_defaults_are_pinned():
    assert sorted(DEFAULTS) == [line.partition(" = ")[0] for line in DEFAULT_LINES]
    assert serialize_config(RunConfig()) == "".join(f"{line}\n" for line in DEFAULT_LINES)


# (run.cfg key, raw value, RunConfig section, the section's field, parsed value)
SECTION_KEYS = [
    ("window_days", "9", "analysis", "window_days", 9),
    ("tau", "0.5", "analysis", "tau", 0.5),
    ("bootstrap_resamples", "300", "analysis", "bootstrap_resamples", 300),
    ("bootstrap_fraction", "0.5", "analysis", "bootstrap_fraction", 0.5),
    ("confidence_level", "0.9", "analysis", "confidence_level", 0.9),
    ("seed", "11", "analysis", "seed", 11),
    ("precision_positive", "0.9", "precisions", "positive", 0.9),
    ("precision_negative", "0.5", "precisions", "negative", 0.5),
    ("precision_neutral", "0.8", "precisions", "neutral", 0.8),
]


@pytest.mark.parametrize("source", ["file", "env"])
@pytest.mark.parametrize("key, raw, section, name, value", SECTION_KEYS)
def test_each_section_key_reaches_its_section(tmp_path, source, key, raw, section, name, value):
    """A key set in run.cfg or as FACTLENS_<KEY> changes that one field of
    cfg.analysis or cfg.precisions."""
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {raw}\n" if source == "file" else "")
    env = {f"FACTLENS_{key.upper()}": raw} if source == "env" else {}
    cfg = load_config(path, env=env)
    assert getattr(cfg, section) == replace(getattr(RunConfig(), section), **{name: value})
    assert getattr(cfg, key) == value


def test_precision_out_of_range_in_run_cfg_names_the_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("precision_negative = 1.5\n")
    with pytest.raises(ConfigError, match=r"^precision_negative: must be in \[0, 1\]$"):
        load_config(path, env={})
