// Cooperative shutdown flag for the streaming daemon.
//
// cgcd must never lose the open window to a SIGTERM/SIGINT: the
// handlers here only set an async-signal-safe flag, and the ingest
// loops (read_event_stream, replay_trace) poll it between batches.
// When the flag is up the daemon stops ingesting, closes and spills
// the current window through the normal flush path, stamps
// `"interrupted": true` into the summary JSON, and exits cleanly —
// the spill directory stays verifiable by `cgc_fsck --spill`.
#pragma once

namespace cgc::stream {

/// Installs SIGTERM/SIGINT handlers that call request_shutdown().
/// Idempotent; call once near the top of main().
void install_shutdown_handlers();

/// Raises the shutdown flag (what the signal handlers do; also
/// callable directly, e.g. from tests).
void request_shutdown();

/// True once a shutdown has been requested.
bool shutdown_requested();

/// Lowers the flag (tests only — a real daemon exits instead).
void clear_shutdown();

}  // namespace cgc::stream
