from ._entry import run

run()
