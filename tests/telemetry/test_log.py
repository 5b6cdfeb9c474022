"""The shared logging configuration and its consumers."""

from __future__ import annotations

import logging

from repro.telemetry import LOG_LEVEL_ENV, configure, get_logger
from repro.telemetry.log import ROOT_LOGGER


class TestGetLogger:
    def test_module_name_lands_under_repro(self):
        logger = get_logger("repro.scenarios.engine")
        assert logger.name == "repro.scenarios.engine"

    def test_bare_suffix_lands_under_repro(self):
        logger = get_logger("scenarios.engine")
        assert logger.name == "repro.scenarios.engine"

    def test_root_name_is_the_root(self):
        assert get_logger(ROOT_LOGGER).name == ROOT_LOGGER


class TestConfigure:
    def test_default_level_is_warning(self, monkeypatch):
        monkeypatch.delenv(LOG_LEVEL_ENV, raising=False)
        root = configure(force=True)
        assert root.level == logging.WARNING

    def test_env_level_is_honored(self, monkeypatch):
        monkeypatch.setenv(LOG_LEVEL_ENV, "debug")
        root = configure(force=True)
        assert root.level == logging.DEBUG
        monkeypatch.delenv(LOG_LEVEL_ENV)
        configure(force=True)

    def test_garbage_env_level_falls_back_to_warning(self, monkeypatch):
        monkeypatch.setenv(LOG_LEVEL_ENV, "CHATTY")
        root = configure(force=True)
        assert root.level == logging.WARNING
        monkeypatch.delenv(LOG_LEVEL_ENV)
        configure(force=True)

    def test_single_handler_and_no_propagation(self):
        configure(force=True)
        configure(force=True)
        root = logging.getLogger(ROOT_LOGGER)
        tagged = [h for h in root.handlers if getattr(h, "_repro_handler", False)]
        assert len(tagged) == 1
        assert root.propagate is False
