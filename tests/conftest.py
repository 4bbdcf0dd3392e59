"""Shared session fixtures so the expensive verification batteries
(catalog, relations, characters) run at most once per test session."""

import pytest

from mldelab import catalog, characters, relations


@pytest.fixture(scope="session")
def relation_reports():
    return relations.verify_all()


@pytest.fixture(scope="session")
def catalog_reports():
    return catalog.verify_all()


@pytest.fixture(scope="session")
def character_reports():
    return {name: characters.verify_case(name, 25)
            for name in ("A1", "A2", "G2", "D4", "F4", "E6", "E7", "E8",
                         "formal24", "formal3/2")}
