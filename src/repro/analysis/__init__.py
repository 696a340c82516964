"""Offline analysis helpers: report formatting (:mod:`repro.analysis.reports`)."""
