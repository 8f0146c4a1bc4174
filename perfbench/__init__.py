"""End-to-end benchmark of the InsightAlign pipeline (see README.md)."""
