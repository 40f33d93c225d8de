// Streaming Chrome-trace sink, the one writer of the Chrome trace_event
// JSON format (loadable in Perfetto / chrome://tracing). Attached to the
// Hub, it observes every emitted event as it happens and writes it to
// disk incrementally (buffered, flushed every ~flush_bytes), so the
// on-disk trace holds the whole run however long it is.
//
// Retire events become complete ("X") slices of their cycle; everything
// else is an instant ("i"). Timestamps are simulated cycles in the `ts`
// field. Events are laned per (hart, unit): tid = hart *
// kChromeTraceHartStride + unit. The header names hart 0's lanes (tids
// 0..6); every other lane gets a "thread_name" metadata row ("hart1 cpu")
// the first time an event lands on it, so Perfetto shows each hart's
// pipeline/TLB/cache rows as its own named group without the header
// knowing the hart count up front.
//
// The on-disk file is valid Chrome trace_event JSON *at every flush
// boundary*, not only after Close(): each flush writes the pending
// records followed by the document trailer, then the next flush seeks
// back over the trailer before appending. A run that ends in a delivered
// SIGSEGV or a thrown simulator error therefore still leaves a parseable
// trace (the kernel's fatal-signal broadcast additionally forces a flush
// via OnFatalSignal). Close() (or the destructor) finalizes it.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "support/status.h"
#include "trace/events.h"

namespace roload::trace {

// tid lanes per hart: hart N's unit U renders as tid N*8+U, leaving
// hart 0 on the historical tids 0..6.
inline constexpr unsigned kChromeTraceHartStride = 8;

class ChromeTraceFileSink : public EventSink {
 public:
  static StatusOr<std::unique_ptr<ChromeTraceFileSink>> Open(
      const std::string& path, std::size_t flush_bytes = 256 * 1024);
  ~ChromeTraceFileSink() override;

  void OnEvent(const TraceEvent& event) override;

  // Fatal-signal hook (Hub::NotifyFatalSignal): flush everything buffered
  // so the events leading up to the fault are on disk even if the process
  // never reaches Close().
  void OnFatalSignal() override;

  // Flushes and finalizes. Idempotent; events arriving after Close() are
  // discarded. Returns the first I/O error seen.
  Status Close();

  std::uint64_t events_written() const { return events_written_; }

 private:
  ChromeTraceFileSink(std::ofstream out, std::string path,
                      std::size_t flush_bytes);

  void FlushBuffer();

  std::ofstream out_;
  std::string path_;
  std::string buffer_;
  // Lanes (by tid) whose thread_name row is already in the document.
  std::vector<bool> announced_;
  std::size_t flush_bytes_;
  // Bytes of document prefix (header + event records) on disk; the file
  // on disk is always prefix + trailer, so truncation at the current end
  // never exists mid-run and the JSON stays well-formed.
  std::uint64_t prefix_bytes_ = 0;
  std::uint64_t events_written_ = 0;
  bool closed_ = false;
  Status status_ = Status::Ok();
};

}  // namespace roload::trace
