import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE_CATALOG = os.path.join(REPO_ROOT, "data", "fixture_allcurves.txt")

# Famous minimal models, usable everywhere without touching the catalog file.
CURVE_11A1 = (0, -1, 1, -10, -20)
CURVE_14A1 = (1, 0, 1, 4, -6)
CURVE_15A1 = (1, 1, 1, -10, -10)
CURVE_17A1 = (1, -1, 1, -1, -14)
CURVE_21A1 = (1, 0, 0, -4, -1)
CURVE_37A1 = (0, 0, 1, -1, 0)
CURVE_389A1 = (0, 1, 1, -2, 0)


@pytest.fixture(scope="session")
def fixture_catalog_path():
    assert os.path.exists(FIXTURE_CATALOG), "bundled catalog missing"
    return FIXTURE_CATALOG


@pytest.fixture(scope="session")
def fixture_records(fixture_catalog_path):
    from lflow.catalog import load_catalog

    return load_catalog(fixture_catalog_path)
