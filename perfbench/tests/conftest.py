"""Put the checkout's ``src`` on the import path for the benchmark tests."""

from perfbench import host

host.use_source_tree()
