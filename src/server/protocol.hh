/**
 * @file
 * The iracc_server wire protocol: length-prefixed JSON frames.
 *
 * A frame is a 4-byte big-endian payload length followed by that
 * many bytes of UTF-8 JSON -- one request or response object per
 * frame, many frames per connection (the client pipelines status
 * polls over one socket).  The length prefix is capped at
 * kMaxFrameBytes so a hostile or confused peer cannot make the
 * server allocate unboundedly.
 *
 * Requests carry {"type": ...} plus type-specific fields; every
 * response carries {"ok": true|false} and, on failure, an "error"
 * string plus an optional machine-readable "reason" code.  The
 * full message catalogue lives in docs/SERVER.md; the structures
 * below are the in-memory mirror used by the server, the client
 * tool, and the round-trip tests.
 *
 * Admission control is visible on the wire: an over-quota submit
 * is *answered* (ok=false, reason="backpressure", retry_after_ms)
 * rather than queued or dropped, so a well-behaved tenant can back
 * off instead of timing out.
 */

#ifndef IRACC_SERVER_PROTOCOL_HH
#define IRACC_SERVER_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hh"

namespace iracc {
namespace server {

/** Frame payload cap: requests and responses are small JSON
 *  documents; anything bigger is a framing error. */
constexpr uint32_t kMaxFrameBytes = 16u * 1024 * 1024;

/** Encode @p payload as one length-prefixed frame. */
std::string encodeFrame(const std::string &payload);

/**
 * Decode one frame from @p buffer starting at @p offset.
 *
 * @return true and advance @p offset past the frame when a whole
 *         frame is available; false with *error empty when more
 *         bytes are needed; false with *error set on a malformed
 *         prefix (oversized length).
 */
bool decodeFrame(const std::string &buffer, size_t *offset,
                 std::string *payload, std::string *error);

/** Read exactly one frame from a socket/pipe fd (blocking).
 *  @return false on EOF or error (*error says which). */
bool readFrame(int fd, std::string *payload, std::string *error);

/** Write one frame to a socket/pipe fd (blocking, full write). */
bool writeFrame(int fd, const std::string &payload,
                std::string *error);

// ---- Requests ----------------------------------------------------

enum class RequestType {
    Submit,
    Status,
    Cancel,
    Result,
    Metrics,
    Ping,
    Shutdown,
    Invalid,
};

const char *requestTypeName(RequestType t);

/** The input of one realignment job. */
struct JobSpec
{
    /** Dataset on the server's filesystem ("file" source). */
    std::string refPath;
    std::string readsPath;

    /** Where the server writes the realigned SAM-lite output;
     *  empty = do not write a file (stats-only job). */
    std::string outPath;

    /**
     * Synthetic dataset ("synth" source): when `synthScale` > 0
     * the server builds the workload itself (core/workload.hh)
     * from these parameters and refPath/readsPath are ignored.
     * Deterministic in (synthSeed, synthScale, synthChromosomes,
     * synthCoverage) -- exactly buildWorkload's contract.
     */
    int64_t synthScale = 0;
    uint64_t synthSeed = 0xADA12878;
    double synthCoverage = 15.0;
    std::vector<int> synthChromosomes;

    /** Contig-level worker threads inside the job. */
    uint32_t jobThreads = 1;

    /** Deterministic RNG stream seed (kRealignStreamSeed). */
    uint64_t seed = 0;
};

struct Request
{
    RequestType type = RequestType::Invalid;

    /** Tenant identity; required on submit, optional elsewhere. */
    std::string tenant;

    /** Job id for status/cancel/result. */
    uint64_t jobId = 0;

    /** status: return progress events with seq > progressSince. */
    uint64_t progressSince = 0;

    /** metrics: "json" (default) or "prometheus". */
    std::string metricsFormat;

    /** shutdown: finish queued+running jobs before exiting. */
    bool drain = true;

    JobSpec spec; ///< submit only
};

/** Serialize a request to its JSON wire form. */
std::string encodeRequest(const Request &req);

/**
 * Parse a request payload.  Unknown types yield
 * RequestType::Invalid with *error set; missing required fields
 * likewise.
 */
bool decodeRequest(const std::string &payload, Request *req,
                   std::string *error);

// ---- Responses ---------------------------------------------------

/** Job lifecycle states, as strings on the wire. */
enum class JobState : uint8_t {
    Queued = 0,
    Running = 1,
    Done = 2,
    Cancelled = 3,
};

const char *jobStateName(JobState s);

/** One per-contig progress event (flight-recorder coordinates). */
struct ProgressEvent
{
    uint64_t seq = 0; ///< 1-based completion sequence in the job
    int32_t contig = -1;
    uint64_t contigsDone = 0;
    uint64_t contigsTotal = 0;
    std::string status; ///< ok / degraded / failed
    uint64_t targets = 0;
    uint64_t vtime = 0; ///< cycle-domain completion time
    bool skipped = false;
};

/** The server's view of one job, as returned by status/result. */
struct JobView
{
    uint64_t id = 0;
    std::string tenant;
    JobState state = JobState::Queued;
    std::string status; ///< terminal health: ok/degraded/failed
    bool cancelled = false;
    std::string error; ///< non-empty when the job errored

    uint64_t contigsDone = 0;
    uint64_t contigsTotal = 0;

    // Terminal result payload (state Done/Cancelled).
    uint64_t targets = 0;
    uint64_t readsConsidered = 0;
    uint64_t readsRealigned = 0;
    double seconds = 0.0;     ///< modeled end-to-end seconds
    double wallSeconds = 0.0; ///< measured host wall-clock
    std::string outPath;
    std::string postmortemPath;

    std::vector<ProgressEvent> progress;
};

struct Response
{
    bool ok = false;
    std::string error;

    /**
     * Machine-readable failure reason: "backpressure" (admission
     * refused, retry later), "unknown-job", "bad-request",
     * "shutting-down", "bad-path" (a file job names a path that
     * cannot work; nothing was queued).
     */
    std::string reason;

    /** backpressure: suggested client back-off. */
    uint64_t retryAfterMs = 0;

    /** submit: the accepted job's id. */
    uint64_t jobId = 0;

    /** submit/backpressure: tenant jobs in flight after this
     *  request, and the tenant's admission quota. */
    uint64_t tenantInFlight = 0;
    uint64_t tenantQuota = 0;

    /** status/result: the job. */
    bool hasJob = false;
    JobView job;

    /** metrics: verbatim registry export (JSON or Prometheus). */
    std::string metricsBody;
    std::string metricsFormat;

    /** ping: server identity. */
    std::string serverName;
};

std::string encodeResponse(const Response &resp);
bool decodeResponse(const std::string &payload, Response *resp,
                    std::string *error);

} // namespace server
} // namespace iracc

#endif // IRACC_SERVER_PROTOCOL_HH
