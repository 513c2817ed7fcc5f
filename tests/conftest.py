"""The paper's two fixtures, z-scored and clustered, shared by the test modules."""
import pytest

import adaptlink as al
from adaptlink import io


@pytest.fixture(scope="module")
def para_nd():
    return al.normalize(io.load_fixture("para"))


@pytest.fixture(scope="module")
def meta_nd():
    return al.normalize(io.load_fixture("meta"))


@pytest.fixture(scope="module")
def para_dendro(para_nd):
    return al.build_dendrogram(para_nd)


@pytest.fixture(scope="module")
def meta_dendro(meta_nd):
    return al.build_dendrogram(meta_nd)
