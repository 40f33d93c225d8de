#include "trace/stream_sink.h"

#include "support/strings.h"

namespace roload::trace {
namespace {

// Closes the traceEvents array and the document.
constexpr std::string_view kTrailer = "\n]}\n";

void AppendLaneName(std::string* out, unsigned tid, std::string_view lane) {
  *out += StrFormat(
      ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%u,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"%.*s\"}}",
      tid, static_cast<int>(lane.size()), lane.data());
}

// Document opening plus the metadata records naming the process and hart
// 0's lanes through kKernel.
std::string Header() {
  // Compact form: one event per line keeps multi-megabyte traces diffable
  // and loads in Perfetto unchanged.
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  out +=
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"roload-sim\"}}";
  for (unsigned u = 0; u <= static_cast<unsigned>(Unit::kKernel); ++u) {
    AppendLaneName(&out, u, UnitName(static_cast<Unit>(u)));
  }
  return out;
}

}  // namespace

StatusOr<std::unique_ptr<ChromeTraceFileSink>> ChromeTraceFileSink::Open(
    const std::string& path, std::size_t flush_bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open for write: " + path);
  }
  auto sink = std::unique_ptr<ChromeTraceFileSink>(
      new ChromeTraceFileSink(std::move(out), path, flush_bytes));
  sink->buffer_ = Header();
  // Put header + trailer on disk right away: the file parses from the
  // first moment of its existence.
  sink->FlushBuffer();
  return sink;
}

ChromeTraceFileSink::ChromeTraceFileSink(std::ofstream out, std::string path,
                                         std::size_t flush_bytes)
    : out_(std::move(out)), path_(std::move(path)),
      // Header() already names hart 0's lanes through kKernel.
      announced_(static_cast<unsigned>(Unit::kKernel) + 1, true),
      flush_bytes_(flush_bytes) {}

ChromeTraceFileSink::~ChromeTraceFileSink() { Close(); }

void ChromeTraceFileSink::OnEvent(const TraceEvent& event) {
  if (closed_) return;
  const unsigned tid = static_cast<unsigned>(event.hart) *
                           kChromeTraceHartStride +
                       static_cast<unsigned>(event.unit);
  if (tid >= announced_.size()) announced_.resize(tid + 1, false);
  if (!announced_[tid]) {
    announced_[tid] = true;
    std::string lane;
    if (event.hart != 0) {
      lane = StrFormat("hart%u ", static_cast<unsigned>(event.hart));
    }
    lane += UnitName(event.unit);
    AppendLaneName(&buffer_, tid, lane);
  }
  const std::string_view name = EventTypeName(event.type);
  const std::string_view cat = EventCategoryName(event.category);
  const bool slice = event.type == EventType::kRetire;
  buffer_ += StrFormat(
      ",\n{\"name\":\"%.*s\",\"cat\":\"%.*s\",\"ph\":\"%s\"%s,"
      "\"ts\":%llu,\"pid\":1,\"tid\":%u,\"args\":{\"pc\":\"0x%llx\","
      "\"addr\":\"0x%llx\",\"arg\":%llu}}",
      static_cast<int>(name.size()), name.data(),
      static_cast<int>(cat.size()), cat.data(), slice ? "X" : "i",
      slice ? ",\"dur\":1" : ",\"s\":\"t\"",
      static_cast<unsigned long long>(event.cycle), tid,
      static_cast<unsigned long long>(event.pc),
      static_cast<unsigned long long>(event.addr),
      static_cast<unsigned long long>(event.arg));
  ++events_written_;
  if (buffer_.size() >= flush_bytes_) FlushBuffer();
}

void ChromeTraceFileSink::OnFatalSignal() {
  if (closed_) return;
  FlushBuffer();
}

void ChromeTraceFileSink::FlushBuffer() {
  // Overwrite the trailer left by the previous flush, append the pending
  // records, and re-terminate the document. Every record is longer than
  // the trailer, so the file only ever grows and the bytes between the
  // prefix and EOF are exactly one valid trailer.
  out_.seekp(static_cast<std::streamoff>(prefix_bytes_));
  if (!buffer_.empty()) {
    out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    prefix_bytes_ += buffer_.size();
    buffer_.clear();
  }
  out_.write(kTrailer.data(), static_cast<std::streamsize>(kTrailer.size()));
  out_.flush();
  if (!out_ && status_.ok()) {
    status_ = Status::Internal("write failed: " + path_);
  }
}

Status ChromeTraceFileSink::Close() {
  if (closed_) return status_;
  closed_ = true;
  FlushBuffer();
  return status_;
}

}  // namespace roload::trace
