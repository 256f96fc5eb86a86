// Declared process-wide mutable state (DESIGN.md §16).
//
// The simulator is single-threaded, and a run owns its state through the
// object graph rooted at its EventLoop. What can silently break run-to-run
// determinism is state that lives outside any such graph: namespace-scope
// globals, function-local statics, and mutable static data members. That
// state outlives one simulation and carries into the next one in the same
// process (one test binary runs hundreds).
//
// MASQ_SHARED_STATE(why) marks each such object. It expands to nothing; it
// exists for the reader and for the `shared-state` pass of
// tools/masq_lint.py, which flags every mutable global or static in src/
// that lacks it and rejects an empty reason. The reason must say why the
// state cannot change a run's results.
#pragma once

#define MASQ_SHARED_STATE(reason)
