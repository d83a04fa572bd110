/**
 * @file
 * Reproduces Table I: the IR accelerator's five-command instruction
 * set on the RoCC custom-instruction format.  Prints the field
 * layout, the command summary, and a fully-disassembled example
 * configuration sequence for one target.
 */

#include <cstdio>

#include "bench_common.hh"
#include "isa/ir_isa.hh"
#include "util/table.hh"

using namespace iracc;

int
main(int argc, char **argv)
{
    bench::banner("tab1_isa",
                  "Table I -- INDEL realignment accelerator "
                  "instructions (RoCC format)");
    obs::BenchReport report = bench::makeReport(
        argc, argv, "tab1_isa",
        "Table I -- IR accelerator instruction set (RoCC format)");

    std::printf("RoCC instruction format (32 bits):\n");
    Table fmt({"Field", "Bits", "Meaning"});
    fmt.addRow({"funct7", "[31:25]", "accelerator command"});
    fmt.addRow({"rs2", "[24:20]", "source register 2 specifier"});
    fmt.addRow({"rs1", "[19:15]", "source register 1 specifier"});
    fmt.addRow({"xd", "[14]", "has destination register"});
    fmt.addRow({"xs1", "[13]", "uses rs1"});
    fmt.addRow({"xs2", "[12]", "uses rs2"});
    fmt.addRow({"rd", "[11:7]",
                "destination / IR unit id (32 units)"});
    fmt.addRow({"opcode", "[6:0]", "custom-0 (accelerator type)"});
    fmt.print();

    std::printf("\nThe five IR accelerator commands:\n");
    Table cmds({"Mnemonic", "Operands", "Per target"});
    cmds.addRow({"ir_set_addr", "<buffer index> <mem addr>",
                 "5x (3 inputs + 2 outputs)"});
    cmds.addRow({"ir_set_target", "<target addr>", "1x"});
    cmds.addRow({"ir_set_size", "<#consensuses> <#reads>", "1x"});
    cmds.addRow({"ir_set_len", "<consensus id> <length>",
                 "up to 32x"});
    cmds.addRow({"ir_start", "<unit id>", "1x (returns response)"});
    cmds.print();

    std::printf("\nExample: full configuration sequence for one "
                "target on unit 5\n");
    uint64_t addrs[kNumIrBuffers] = {0x10000, 0x20000, 0x30000,
                                     0x40000, 0x41000};
    std::vector<uint16_t> lens = {512, 509, 515};
    auto sequence = buildTargetCommands(5, addrs, 1234567, 3, 180,
                                        lens);
    Table dis({"#", "Encoding", "Disassembly"});
    for (size_t i = 0; i < sequence.size(); ++i) {
        char enc[16];
        std::snprintf(enc, sizeof(enc), "0x%08x",
                      sequence[i].instruction().encode());
        dis.addRow({std::to_string(i), enc,
                    sequence[i].disassemble()});
    }
    dis.print();

    report.addValue("commands", 5.0);
    report.addValue("exampleSequenceLength",
                    static_cast<double>(sequence.size()));
    report.addTable("format", fmt);
    report.addTable("commandSet", cmds);
    report.addTable("disassembly", dis);
    report.writeOutput();
    return 0;
}
