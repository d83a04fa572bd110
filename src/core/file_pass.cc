#include "core/file_pass.hh"

#include <fstream>
#include <numeric>

#include "genomics/io.hh"
#include "util/argparse.hh"

namespace iracc {

FilePassResult
runFilePass(const RealignSession &session, const ReferenceGenome &ref,
            std::istream &in,
            const std::function<std::ostream *()> &output, bool stream,
            const RealignJobConfig &cfg)
{
    FilePassResult pass;
    std::ostream *out = nullptr;
    if (stream) {
        if (output && !(out = output()))
            return pass;
        pass.realigned = true;
        SamLiteBatchSource source(in, ref);
        StreamRealignResult sr = session.runStreamed(
            ref, source,
            [&](std::vector<Read> &group) {
                if (out)
                    writeSamLite(*out, ref, group);
            },
            cfg);
        pass.job = std::move(sr.job);
        pass.parseError = std::move(sr.parseError);
        pass.reads = sr.readsStreamed;
        pass.batches = sr.batches;
        return pass;
    }
    std::vector<Read> reads = readSamLite(in, ref, &pass.parseError);
    if (!pass.parseError.ok())
        return pass;
    std::vector<int32_t> contigs(ref.numContigs());
    std::iota(contigs.begin(), contigs.end(), 0);
    pass.realigned = true;
    pass.job = session.run(ref, contigs, reads, cfg);
    pass.reads = reads.size();
    if (!pass.job.cancelled && output && (out = output()))
        writeSamLite(*out, ref, reads);
    return pass;
}

FilePassResult
runFilePass(const RealignSession &session, const std::string &ref_path,
            const std::string &reads_path, const std::string &out_path,
            bool stream, const RealignJobConfig &cfg)
{
    std::ifstream fa(ref_path), in(reads_path);
    std::ofstream out;
    bool opened = false;
    std::function<std::ostream *()> output;
    if (!out_path.empty()) {
        output = [&]() -> std::ostream * {
            opened = true;
            out.open(out_path);
            return out ? &out : nullptr;
        };
    }
    FilePassResult pass;
    if (!fa)
        pass.error = "cannot open reference '" + ref_path + "'";
    else
        pass.ref = readFasta(fa, &pass.error);
    if (pass.error.empty() && !in)
        pass.error = "cannot open reads '" + reads_path + "'";
    if (pass.error.empty()) {
        ReferenceGenome ref = std::move(pass.ref);
        pass = runFilePass(session, ref, in, output, stream, cfg);
        pass.ref = std::move(ref);
    }
    if (opened && out.is_open() &&
        (!pass.parseError.ok() || pass.job.cancelled)) {
        out.close();
        removePartialOutput(out_path);
    } else if (opened && (!out.is_open() || !closeOutput(out, out_path))) {
        pass.error = "cannot write '" + out_path + "'";
    }
    return pass;
}

} // namespace iracc
