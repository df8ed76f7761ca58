"""End-to-end benchmark of the repro program: see README.md."""
