#include "server/protocol.hh"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

namespace iracc {
namespace server {

namespace {

void
putU32be(std::string *out, uint32_t v)
{
    out->push_back(static_cast<char>((v >> 24) & 0xff));
    out->push_back(static_cast<char>((v >> 16) & 0xff));
    out->push_back(static_cast<char>((v >> 8) & 0xff));
    out->push_back(static_cast<char>(v & 0xff));
}

uint32_t
getU32be(const unsigned char *p)
{
    return (static_cast<uint32_t>(p[0]) << 24) |
           (static_cast<uint32_t>(p[1]) << 16) |
           (static_cast<uint32_t>(p[2]) << 8) |
           static_cast<uint32_t>(p[3]);
}

bool
readAll(int fd, void *buf, size_t n, std::string *error)
{
    char *p = static_cast<char *>(buf);
    size_t got = 0;
    while (got < n) {
        ssize_t r = ::read(fd, p + got, n - got);
        if (r == 0) {
            *error = "eof";
            return false;
        }
        if (r < 0) {
            if (errno == EINTR)
                continue;
            *error = std::strerror(errno);
            return false;
        }
        got += static_cast<size_t>(r);
    }
    return true;
}

// -- JSON field readers over util/json ----------------------------

uint64_t
numField(const JsonValue &obj, const char *key, uint64_t dflt = 0)
{
    if (!obj.isObject() || !obj.has(key) ||
        !obj.at(key).isNumber()) {
        return dflt;
    }
    double v = obj.at(key).asNumber();
    return v <= 0 ? 0 : static_cast<uint64_t>(v);
}

double
dblField(const JsonValue &obj, const char *key, double dflt = 0.0)
{
    if (!obj.isObject() || !obj.has(key) ||
        !obj.at(key).isNumber()) {
        return dflt;
    }
    return obj.at(key).asNumber();
}

std::string
strField(const JsonValue &obj, const char *key,
         const std::string &dflt = "")
{
    if (!obj.isObject() || !obj.has(key) ||
        !obj.at(key).isString()) {
        return dflt;
    }
    return obj.at(key).asString();
}

bool
boolField(const JsonValue &obj, const char *key, bool dflt)
{
    if (!obj.isObject() || !obj.has(key))
        return dflt;
    const JsonValue &v = obj.at(key);
    if (v.isBool())
        return v.asBool();
    if (v.isNumber())
        return v.asNumber() != 0.0;
    return dflt;
}

/** Emit doubles in a JSON-safe, round-trippable form. */
std::string
dbl(double v)
{
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

} // namespace

std::string
encodeFrame(const std::string &payload)
{
    std::string out;
    out.reserve(payload.size() + 4);
    putU32be(&out, static_cast<uint32_t>(payload.size()));
    out += payload;
    return out;
}

bool
decodeFrame(const std::string &buffer, size_t *offset,
            std::string *payload, std::string *error)
{
    error->clear();
    if (buffer.size() - *offset < 4)
        return false;
    uint32_t len = getU32be(reinterpret_cast<const unsigned char *>(
        buffer.data() + *offset));
    if (len > kMaxFrameBytes) {
        *error = "frame length " + std::to_string(len) +
                 " exceeds cap";
        return false;
    }
    if (buffer.size() - *offset - 4 < len)
        return false;
    *payload = buffer.substr(*offset + 4, len);
    *offset += 4 + len;
    return true;
}

bool
readFrame(int fd, std::string *payload, std::string *error)
{
    unsigned char hdr[4];
    if (!readAll(fd, hdr, 4, error))
        return false;
    uint32_t len = getU32be(hdr);
    if (len > kMaxFrameBytes) {
        *error = "frame length " + std::to_string(len) +
                 " exceeds cap";
        return false;
    }
    payload->assign(len, '\0');
    return len == 0 || readAll(fd, payload->data(), len, error);
}

bool
writeFrame(int fd, const std::string &payload, std::string *error)
{
    std::string frame = encodeFrame(payload);
    size_t sent = 0;
    while (sent < frame.size()) {
        ssize_t w =
            ::write(fd, frame.data() + sent, frame.size() - sent);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            *error = std::strerror(errno);
            return false;
        }
        sent += static_cast<size_t>(w);
    }
    return true;
}

const char *
requestTypeName(RequestType t)
{
    switch (t) {
    case RequestType::Submit:
        return "submit";
    case RequestType::Status:
        return "status";
    case RequestType::Cancel:
        return "cancel";
    case RequestType::Result:
        return "result";
    case RequestType::Metrics:
        return "metrics";
    case RequestType::Ping:
        return "ping";
    case RequestType::Shutdown:
        return "shutdown";
    case RequestType::Invalid:
        break;
    }
    return "invalid";
}

const char *
jobStateName(JobState s)
{
    switch (s) {
    case JobState::Queued:
        return "queued";
    case JobState::Running:
        return "running";
    case JobState::Done:
        return "done";
    case JobState::Cancelled:
        return "cancelled";
    }
    return "unknown";
}

std::string
encodeRequest(const Request &req)
{
    std::string out = "{\"type\":";
    out += jsonQuote(requestTypeName(req.type));
    if (!req.tenant.empty())
        out += ",\"tenant\":" + jsonQuote(req.tenant);
    switch (req.type) {
    case RequestType::Submit: {
        const JobSpec &s = req.spec;
        out += ",\"spec\":{";
        bool first = true;
        auto field = [&](const std::string &text) {
            out += (first ? "" : ",") + text;
            first = false;
        };
        if (!s.refPath.empty())
            field("\"ref\":" + jsonQuote(s.refPath));
        if (!s.readsPath.empty())
            field("\"reads\":" + jsonQuote(s.readsPath));
        if (!s.outPath.empty())
            field("\"out\":" + jsonQuote(s.outPath));
        if (s.synthScale > 0) {
            field("\"synth_scale\":" +
                  std::to_string(s.synthScale));
            field("\"synth_seed\":" + std::to_string(s.synthSeed));
            field("\"synth_coverage\":" + dbl(s.synthCoverage));
            if (!s.synthChromosomes.empty()) {
                std::string arr = "\"synth_chromosomes\":[";
                for (size_t i = 0; i < s.synthChromosomes.size();
                     ++i) {
                    arr += (i ? "," : "") +
                           std::to_string(s.synthChromosomes[i]);
                }
                field(arr + "]");
            }
        }
        field("\"job_threads\":" + std::to_string(s.jobThreads));
        out += "}";
        break;
    }
    case RequestType::Status:
        out += ",\"job_id\":" + std::to_string(req.jobId);
        if (req.progressSince > 0) {
            out += ",\"progress_since\":" +
                   std::to_string(req.progressSince);
        }
        break;
    case RequestType::Cancel:
    case RequestType::Result:
        out += ",\"job_id\":" + std::to_string(req.jobId);
        break;
    case RequestType::Metrics:
        if (!req.metricsFormat.empty()) {
            out += ",\"format\":" + jsonQuote(req.metricsFormat);
        }
        break;
    case RequestType::Shutdown:
        out += std::string(",\"drain\":") +
               (req.drain ? "true" : "false");
        break;
    case RequestType::Ping:
    case RequestType::Invalid:
        break;
    }
    out += "}";
    return out;
}

bool
decodeRequest(const std::string &payload, Request *req,
              std::string *error)
{
    *req = Request();
    JsonValue root = JsonValue::parse(payload, error);
    if (!error->empty())
        return false;
    if (!root.isObject()) {
        *error = "request is not a JSON object";
        return false;
    }
    std::string type = strField(root, "type");
    if (type == "submit")
        req->type = RequestType::Submit;
    else if (type == "status")
        req->type = RequestType::Status;
    else if (type == "cancel")
        req->type = RequestType::Cancel;
    else if (type == "result")
        req->type = RequestType::Result;
    else if (type == "metrics")
        req->type = RequestType::Metrics;
    else if (type == "ping")
        req->type = RequestType::Ping;
    else if (type == "shutdown")
        req->type = RequestType::Shutdown;
    else {
        *error = "unknown request type '" + type + "'";
        return false;
    }

    req->tenant = strField(root, "tenant");
    req->jobId = numField(root, "job_id");
    req->progressSince = numField(root, "progress_since");
    req->metricsFormat = strField(root, "format");
    req->drain = boolField(root, "drain", true);

    if (req->type == RequestType::Submit) {
        if (req->tenant.empty()) {
            *error = "submit requires a tenant";
            return false;
        }
        if (!root.has("spec") || !root.at("spec").isObject()) {
            *error = "submit requires a spec object";
            return false;
        }
        const JsonValue &s = root.at("spec");
        JobSpec &spec = req->spec;
        spec.refPath = strField(s, "ref");
        spec.readsPath = strField(s, "reads");
        spec.outPath = strField(s, "out");
        spec.synthScale = static_cast<int64_t>(
            numField(s, "synth_scale"));
        spec.synthSeed =
            numField(s, "synth_seed", spec.synthSeed);
        spec.synthCoverage =
            dblField(s, "synth_coverage", spec.synthCoverage);
        if (s.has("synth_chromosomes") &&
            s.at("synth_chromosomes").isArray()) {
            for (const JsonValue &v :
                 s.at("synth_chromosomes").asArray()) {
                if (v.isNumber()) {
                    spec.synthChromosomes.push_back(
                        static_cast<int>(v.asNumber()));
                }
            }
        }
        spec.jobThreads = static_cast<uint32_t>(
            numField(s, "job_threads", 1));
        if (spec.jobThreads == 0)
            spec.jobThreads = 1;
        if (spec.synthScale <= 0 &&
            (spec.refPath.empty() || spec.readsPath.empty())) {
            *error = "submit spec needs ref+reads paths or a "
                     "synth_scale";
            return false;
        }
    } else if (req->type == RequestType::Status ||
               req->type == RequestType::Cancel ||
               req->type == RequestType::Result) {
        if (req->jobId == 0) {
            *error = std::string(requestTypeName(req->type)) +
                     " requires a job_id";
            return false;
        }
    }
    return true;
}

namespace {

void
encodeJob(std::string *out, const JobView &j)
{
    *out += "\"job\":{\"id\":" + std::to_string(j.id);
    *out += ",\"tenant\":" + jsonQuote(j.tenant);
    *out += ",\"state\":" +
            jsonQuote(jobStateName(j.state));
    if (!j.status.empty())
        *out += ",\"status\":" + jsonQuote(j.status);
    if (j.cancelled)
        *out += ",\"cancelled\":true";
    if (!j.error.empty())
        *out += ",\"error\":" + jsonQuote(j.error);
    *out += ",\"contigs_done\":" + std::to_string(j.contigsDone);
    *out += ",\"contigs_total\":" + std::to_string(j.contigsTotal);
    *out += ",\"targets\":" + std::to_string(j.targets);
    *out += ",\"reads_considered\":" +
            std::to_string(j.readsConsidered);
    *out += ",\"reads_realigned\":" +
            std::to_string(j.readsRealigned);
    *out += ",\"fpga_seconds\":" + dbl(j.fpgaSeconds);
    *out += ",\"wall_seconds\":" + dbl(j.wallSeconds);
    if (!j.outPath.empty())
        *out += ",\"out\":" + jsonQuote(j.outPath);
    if (!j.postmortemPath.empty())
        *out += ",\"postmortem\":" + jsonQuote(j.postmortemPath);
    *out += ",\"progress\":[";
    for (size_t i = 0; i < j.progress.size(); ++i) {
        const ProgressEvent &p = j.progress[i];
        *out += i ? "," : "";
        *out += "{\"seq\":" + std::to_string(p.seq);
        *out += ",\"contig\":" + std::to_string(p.contig);
        *out += ",\"done\":" + std::to_string(p.contigsDone);
        *out += ",\"total\":" + std::to_string(p.contigsTotal);
        *out += ",\"status\":" + jsonQuote(p.status);
        *out += ",\"targets\":" + std::to_string(p.targets);
        *out += ",\"vtime\":" + std::to_string(p.vtime);
        if (p.skipped)
            *out += ",\"skipped\":true";
        *out += "}";
    }
    *out += "]}";
}

void
decodeJob(const JsonValue &obj, JobView *j)
{
    j->id = numField(obj, "id");
    j->tenant = strField(obj, "tenant");
    std::string state = strField(obj, "state");
    if (state == "queued")
        j->state = JobState::Queued;
    else if (state == "running")
        j->state = JobState::Running;
    else if (state == "done")
        j->state = JobState::Done;
    else if (state == "cancelled")
        j->state = JobState::Cancelled;
    j->status = strField(obj, "status");
    j->cancelled = boolField(obj, "cancelled", false);
    j->error = strField(obj, "error");
    j->contigsDone = numField(obj, "contigs_done");
    j->contigsTotal = numField(obj, "contigs_total");
    j->targets = numField(obj, "targets");
    j->readsConsidered = numField(obj, "reads_considered");
    j->readsRealigned = numField(obj, "reads_realigned");
    j->fpgaSeconds = dblField(obj, "fpga_seconds");
    j->wallSeconds = dblField(obj, "wall_seconds");
    j->outPath = strField(obj, "out");
    j->postmortemPath = strField(obj, "postmortem");
    if (obj.has("progress") && obj.at("progress").isArray()) {
        for (const JsonValue &v : obj.at("progress").asArray()) {
            ProgressEvent p;
            p.seq = numField(v, "seq");
            p.contig = static_cast<int32_t>(
                dblField(v, "contig", -1));
            p.contigsDone = numField(v, "done");
            p.contigsTotal = numField(v, "total");
            p.status = strField(v, "status");
            p.targets = numField(v, "targets");
            p.vtime = numField(v, "vtime");
            p.skipped = boolField(v, "skipped", false);
            j->progress.push_back(std::move(p));
        }
    }
}

} // namespace

std::string
encodeResponse(const Response &resp)
{
    std::string out = std::string("{\"ok\":") +
                      (resp.ok ? "true" : "false");
    if (!resp.error.empty())
        out += ",\"error\":" + jsonQuote(resp.error);
    if (!resp.reason.empty())
        out += ",\"reason\":" + jsonQuote(resp.reason);
    if (resp.retryAfterMs > 0) {
        out += ",\"retry_after_ms\":" +
               std::to_string(resp.retryAfterMs);
    }
    if (resp.jobId > 0)
        out += ",\"job_id\":" + std::to_string(resp.jobId);
    if (resp.tenantQuota > 0) {
        out += ",\"tenant_in_flight\":" +
               std::to_string(resp.tenantInFlight);
        out += ",\"tenant_quota\":" +
               std::to_string(resp.tenantQuota);
    }
    if (resp.hasJob) {
        out += ",";
        encodeJob(&out, resp.job);
    }
    if (!resp.metricsBody.empty()) {
        out += ",\"metrics_format\":" +
               jsonQuote(resp.metricsFormat);
        out += ",\"metrics\":" + jsonQuote(resp.metricsBody);
    }
    if (!resp.serverName.empty())
        out += ",\"server\":" + jsonQuote(resp.serverName);
    out += "}";
    return out;
}

bool
decodeResponse(const std::string &payload, Response *resp,
               std::string *error)
{
    *resp = Response();
    JsonValue root = JsonValue::parse(payload, error);
    if (!error->empty())
        return false;
    if (!root.isObject()) {
        *error = "response is not a JSON object";
        return false;
    }
    resp->ok = boolField(root, "ok", false);
    resp->error = strField(root, "error");
    resp->reason = strField(root, "reason");
    resp->retryAfterMs = numField(root, "retry_after_ms");
    resp->jobId = numField(root, "job_id");
    resp->tenantInFlight = numField(root, "tenant_in_flight");
    resp->tenantQuota = numField(root, "tenant_quota");
    if (root.has("job") && root.at("job").isObject()) {
        resp->hasJob = true;
        decodeJob(root.at("job"), &resp->job);
    }
    resp->metricsBody = strField(root, "metrics");
    resp->metricsFormat = strField(root, "metrics_format");
    resp->serverName = strField(root, "server");
    return true;
}

} // namespace server
} // namespace iracc
