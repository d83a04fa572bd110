/**
 * @file
 * The file pass (core/file_pass.hh): in-memory and streamed runs
 * write the bytes a plain RealignSession::run + writeSamLite
 * writes, and the path layer keeps its file-system contract on a
 * parse failure, a cancellation and an empty output path.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/file_pass.hh"
#include "core/realign_job.hh"
#include "core/realigner_api.hh"
#include "core/workload.hh"
#include "genomics/io.hh"

namespace iracc {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

/** Three small contigs on disk, and the reads that were written. */
class FilePass : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        char tmpl[] = "/tmp/iracc_file_pass_XXXXXX";
        ASSERT_NE(mkdtemp(tmpl), nullptr);
        dir = tmpl;
        WorkloadParams params;
        params.seed = 11;
        params.scaleDivisor = 40000;
        params.coverage = 4.0;
        params.chromosomes = {20, 21, 22};
        GenomeWorkload wl = buildWorkload(params);
        ref = wl.reference;
        reads = wl.allReads();
        std::ofstream fa(refPath());
        writeFasta(fa, ref);
        std::ofstream sam(readsPath());
        writeSamLite(sam, ref, reads);
    }

    void TearDown() override { std::filesystem::remove_all(dir); }

    std::string refPath() const { return dir + "/ref.fa"; }
    std::string readsPath() const { return dir + "/in.samlite"; }

    FilePassResult pass(const RealignSession &session,
                        const std::string &in, const std::string &out,
                        bool stream, RealignJobConfig cfg = {})
    {
        return runFilePass(session, refPath(), in, out, stream, cfg);
    }

    std::string dir;
    ReferenceGenome ref;
    std::vector<Read> reads;
};

TEST_F(FilePass, InMemoryAndStreamedMatchAPlainRun)
{
    for (const char *backend : {"iracc", "native"}) {
        SCOPED_TRACE(backend);
        RealignSession session(makeBackend(backend));
        std::vector<Read> expect = reads;
        RealignJobResult plain = session.run(ref, expect);
        ASSERT_GT(plain.stats.readsRealigned, 0u);
        std::ostringstream want;
        writeSamLite(want, ref, expect);

        for (bool stream : {false, true}) {
            SCOPED_TRACE(stream ? "streamed" : "in memory");
            const std::string out = dir + "/out.samlite";
            FilePassResult r = pass(session, readsPath(), out, stream);
            EXPECT_TRUE(r.error.empty()) << r.error;
            EXPECT_TRUE(r.parseError.ok());
            EXPECT_TRUE(r.realigned);
            EXPECT_EQ(r.reads, reads.size());
            EXPECT_EQ(r.batches, stream ? 3u : 0u);
            EXPECT_EQ(r.job.stats.targets, plain.stats.targets);
            EXPECT_EQ(r.job.stats.readsRealigned,
                      plain.stats.readsRealigned);
            EXPECT_EQ(slurp(out), want.str());

            // The stream core writes the same bytes.
            std::ifstream in(readsPath());
            std::ostringstream os;
            FilePassResult s = runFilePass(
                session, ref, in, [&] { return &os; }, stream, {});
            EXPECT_TRUE(s.parseError.ok());
            EXPECT_EQ(os.str(), want.str());
        }
    }
}

TEST_F(FilePass, ParseFailureLeavesNoPartialOutput)
{
    // Corrupt one record in the middle of the third contig.
    const std::string text = slurp(readsPath());
    std::istringstream lines(text);
    std::ostringstream bad;
    std::string line, last_contig;
    int contigs = 0, in_contig = 0;
    while (std::getline(lines, line)) {
        const size_t t1 = line.find('\t');
        const std::string contig =
            line.substr(t1 + 1, line.find('\t', t1 + 1) - t1 - 1);
        if (contig != last_contig) {
            last_contig = contig;
            ++contigs;
            in_contig = 0;
        }
        if (contigs == 3 && ++in_contig == 5)
            line.replace(t1 + 1 + contig.size() + 1, 1, "x");
        bad << line << '\n';
    }
    ASSERT_EQ(contigs, 3);
    const std::string bad_path = dir + "/bad.samlite";
    std::ofstream(bad_path) << bad.str();

    RealignSession session(makeBackend("iracc"));
    const std::string streamed_out = dir + "/streamed.samlite";
    FilePassResult s = pass(session, bad_path, streamed_out, true);
    EXPECT_FALSE(s.parseError.ok());
    EXPECT_TRUE(s.error.empty());
    EXPECT_FALSE(std::filesystem::exists(streamed_out));

    const std::string memory_out = dir + "/memory.samlite";
    std::ofstream(memory_out) << "existing\n";
    FilePassResult m = pass(session, bad_path, memory_out, false);
    EXPECT_FALSE(m.parseError.ok());
    EXPECT_FALSE(m.realigned);
    EXPECT_TRUE(m.error.empty());
    EXPECT_EQ(slurp(memory_out), "existing\n");

    EXPECT_EQ(s.parseError.code, m.parseError.code);
    EXPECT_EQ(s.parseError.line, m.parseError.line);
}

TEST_F(FilePass, CancelledPassLeavesNoOutput)
{
    RealignSession session(makeBackend("iracc"));
    const std::atomic<bool> cancel{true};
    RealignJobConfig cfg;
    cfg.cancel = &cancel;
    for (bool stream : {false, true}) {
        SCOPED_TRACE(stream ? "streamed" : "in memory");
        const std::string out = dir + "/out.samlite";
        FilePassResult r = pass(session, readsPath(), out, stream, cfg);
        EXPECT_TRUE(r.job.cancelled);
        EXPECT_TRUE(r.error.empty());
        EXPECT_FALSE(std::filesystem::exists(out));
    }
}

TEST_F(FilePass, EmptyOutputPathWritesNothing)
{
    RealignSession session(makeBackend("native"));
    for (bool stream : {false, true}) {
        FilePassResult r = pass(session, readsPath(), "", stream);
        EXPECT_TRUE(r.error.empty()) << r.error;
        EXPECT_TRUE(r.parseError.ok());
        EXPECT_EQ(r.reads, reads.size());
    }
    size_t files = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        files += entry.is_regular_file() ? 1 : 0;
    EXPECT_EQ(files, 2u); // the inputs alone
}

TEST_F(FilePass, BadInputsAreReportedNotFatal)
{
    RealignSession session(makeBackend("native"));
    const std::string out = dir + "/o.samlite";
    FilePassResult r = pass(session, dir + "/none.samlite", out, true);
    EXPECT_EQ(r.error, "cannot open reads '" + dir + "/none.samlite'");
    EXPECT_FALSE(r.realigned);
    EXPECT_FALSE(std::filesystem::exists(out));

    const std::pair<std::string, std::string> refs[] = {
        {dir + "/none.fa", "cannot open reference '" + dir + "/none.fa'"},
        {dir + "/bad.fa", "contig chr21 has invalid bases"},
    };
    std::ofstream(dir + "/bad.fa") << ">chr21\nACGTXACGT";
    for (const auto &[path, want] : refs) {
        for (bool stream : {false, true}) {
            r = runFilePass(session, path, readsPath(), out, stream, {});
            EXPECT_EQ(r.error, want);
            EXPECT_FALSE(r.realigned);
            EXPECT_FALSE(std::filesystem::exists(out));
        }
    }
}

TEST(ReadFasta, MalformedReferencesAreReported)
{
    const std::pair<const char *, const char *> cases[] = {
        {"ACGT\n>chr1\nACGT\n", "FASTA sequence data before any header"},
        {">chr21\nACGTXACGT", "contig chr21 has invalid bases"},
        {">\nACGT\n", "FASTA record with empty name"},
        {">chr1 first\nACGT\nAC\n>chr2\nGGNN\n", ""},
    };
    for (const auto &[text, want] : cases) {
        std::istringstream in(text);
        std::string error;
        ReferenceGenome ref = readFasta(in, &error);
        EXPECT_EQ(error, want) << text;
        if (error.empty()) {
            ASSERT_EQ(ref.numContigs(), 2u);
            EXPECT_EQ(ref.contig(0).name, "chr1");
            EXPECT_EQ(ref.contig(0).seq, "ACGTAC");
            EXPECT_EQ(ref.contig(1).seq, "GGNN");
        }
    }
}

} // namespace
} // namespace iracc
