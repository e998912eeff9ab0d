"""Polymer-expansion renormalization group engine for the 2D sine-Gordon model."""

import csv

__version__ = "0.1.0"


def write_csv(path, rows):
    """Write ``rows``, dicts with the same keys, as CSV with a header taken
    from the first row."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
