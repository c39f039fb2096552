"""Tests for the crash-tolerant, resumable execution layer."""
