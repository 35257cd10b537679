"""Graph-database substrate: set and bag graph databases, one cached fact index
per database (unit multiplicities for a set database), and workload
generators."""

from .database import BagGraphDatabase, Fact, GraphDatabase, as_set
from .index import DatabaseIndex

__all__ = ["BagGraphDatabase", "DatabaseIndex", "Fact", "GraphDatabase", "as_set"]
