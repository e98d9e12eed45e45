/**
 * @file
 * Cycle-identity guard for the hot-path kernel optimizations.
 *
 * The allocation-free tick loop, the stable-position ROB index, and
 * the flat predictor tables are pure *mechanical* rewrites: they must
 * not change a single simulated cycle. This test pins every frontend
 * variant on three small workloads (one per suite family) against
 * golden cycle/instruction counts captured from the pre-optimization
 * simulator, and every catalog workload x variant, on short windows,
 * against a digest of every reported metric. Any divergence means an optimization changed simulated
 * behavior, not just simulator speed — which is a bug here even if
 * the new behavior were "better".
 *
 * If a future PR *intentionally* changes timing semantics, it must
 * re-capture these goldens and say so in its description.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <type_traits>

#include "common/hash.hh"
#include "sim/runner.hh"
#include "workload/catalog.hh"
#include "workload/trace_cache.hh"

using namespace elfsim;

namespace {

struct Golden
{
    const char *workload;
    const char *variant;
    std::uint64_t cycles;
    std::uint64_t insts;
};

// Captured with warmupInsts=20000, measureInsts=50000 on the
// pre-optimization kernel (see EXPERIMENTS.md "Simulator throughput").
constexpr Golden goldens[] = {
    { "641.leela", "NoDCF", 47530ULL, 50002ULL },
    { "641.leela", "DCF", 27300ULL, 50003ULL },
    { "641.leela", "L-ELF", 27065ULL, 50003ULL },
    { "641.leela", "RET-ELF", 27027ULL, 50003ULL },
    { "641.leela", "IND-ELF", 27065ULL, 50003ULL },
    { "641.leela", "COND-ELF", 26969ULL, 50003ULL },
    { "641.leela", "U-ELF", 27307ULL, 50006ULL },
    { "602.gcc", "NoDCF", 42036ULL, 50005ULL },
    { "602.gcc", "DCF", 55115ULL, 50003ULL },
    { "602.gcc", "L-ELF", 55766ULL, 50003ULL },
    { "602.gcc", "RET-ELF", 55432ULL, 50003ULL },
    { "602.gcc", "IND-ELF", 55766ULL, 50003ULL },
    { "602.gcc", "COND-ELF", 56082ULL, 50003ULL },
    { "602.gcc", "U-ELF", 55365ULL, 50003ULL },
    { "srv2.subtest_1", "NoDCF", 39662ULL, 50006ULL },
    { "srv2.subtest_1", "DCF", 41116ULL, 50006ULL },
    { "srv2.subtest_1", "L-ELF", 40466ULL, 50006ULL },
    { "srv2.subtest_1", "RET-ELF", 40006ULL, 50006ULL },
    { "srv2.subtest_1", "IND-ELF", 40466ULL, 50006ULL },
    { "srv2.subtest_1", "COND-ELF", 41729ULL, 50006ULL },
    { "srv2.subtest_1", "U-ELF", 40298ULL, 50006ULL },
};

/** Digest of one catalog cell's full RunResult field walk. */
struct CatalogDigest
{
    const char *workload;
    const char *variant;
    std::uint64_t digest;
};

// Captured with warmupInsts=2000, measureInsts=8000 on every
// workloadCatalog() entry x allVariants, in that nesting order, from
// the simulator as it was before the wakeup-driven issue select.
constexpr CatalogDigest catalogDigests[] = {
    { "602.gcc", "NoDCF", 0xaac2dd072abe1e4cULL },
    { "602.gcc", "DCF", 0xd6919d9be7f3b427ULL },
    { "602.gcc", "L-ELF", 0x7ee035670e3a44aeULL },
    { "602.gcc", "RET-ELF", 0x44658fbbf8f728efULL },
    { "602.gcc", "IND-ELF", 0xa5bd479552e63b4fULL },
    { "602.gcc", "COND-ELF", 0x4c589004ab8c03d5ULL },
    { "602.gcc", "U-ELF", 0xdaeb06604a108ef7ULL },
    { "605.mcf", "NoDCF", 0x503932ae2883cb37ULL },
    { "605.mcf", "DCF", 0xb7e3b1f13a99b225ULL },
    { "605.mcf", "L-ELF", 0xd42bb80617df0c3fULL },
    { "605.mcf", "RET-ELF", 0x673e4a9d07f1c57cULL },
    { "605.mcf", "IND-ELF", 0x01a5e4b7b3fd9a72ULL },
    { "605.mcf", "COND-ELF", 0xe24c127353edd1daULL },
    { "605.mcf", "U-ELF", 0x5eedadad69505902ULL },
    { "620.omnetpp", "NoDCF", 0xff149ac8542b1addULL },
    { "620.omnetpp", "DCF", 0xd212acc6c58af0bcULL },
    { "620.omnetpp", "L-ELF", 0xd1f5c88c122228c5ULL },
    { "620.omnetpp", "RET-ELF", 0xf733e7e7b30606b5ULL },
    { "620.omnetpp", "IND-ELF", 0xdb16da53ff590ffcULL },
    { "620.omnetpp", "COND-ELF", 0xf7c8b7c4b628c011ULL },
    { "620.omnetpp", "U-ELF", 0xdd1208a728ee485fULL },
    { "631.deepsjeng", "NoDCF", 0xd38a9d1dfb30a6e3ULL },
    { "631.deepsjeng", "DCF", 0x7420df350e3c66a0ULL },
    { "631.deepsjeng", "L-ELF", 0xd5ae68d7d779e3b8ULL },
    { "631.deepsjeng", "RET-ELF", 0x6c3115afc97a67daULL },
    { "631.deepsjeng", "IND-ELF", 0x6151d49370164a9dULL },
    { "631.deepsjeng", "COND-ELF", 0xbdfa35aa83cc6d47ULL },
    { "631.deepsjeng", "U-ELF", 0x5ec65fce9941c150ULL },
    { "641.leela", "NoDCF", 0x0c2c2b957e5e2882ULL },
    { "641.leela", "DCF", 0x72570290db8b5235ULL },
    { "641.leela", "L-ELF", 0x77d1b571182dfa78ULL },
    { "641.leela", "RET-ELF", 0xcc8cd7c428cb3f13ULL },
    { "641.leela", "IND-ELF", 0x3df302672233f801ULL },
    { "641.leela", "COND-ELF", 0x4df78a719276f118ULL },
    { "641.leela", "U-ELF", 0x2237c7f4b4158b21ULL },
    { "648.exchange2", "NoDCF", 0x30ff5b5186222adaULL },
    { "648.exchange2", "DCF", 0xf4898d9f0eed4034ULL },
    { "648.exchange2", "L-ELF", 0x03d59811785073f6ULL },
    { "648.exchange2", "RET-ELF", 0x487f7ec6e9d63b13ULL },
    { "648.exchange2", "IND-ELF", 0x629e6181d8b7dcdfULL },
    { "648.exchange2", "COND-ELF", 0x83d8355947946dbeULL },
    { "648.exchange2", "U-ELF", 0x275f0979d2524cb1ULL },
    { "657.xz_s", "NoDCF", 0x447e3d0a3942ae10ULL },
    { "657.xz_s", "DCF", 0x3a225ba4dfff793eULL },
    { "657.xz_s", "L-ELF", 0xafd890398fabcf90ULL },
    { "657.xz_s", "RET-ELF", 0x5348aa49174c0ad0ULL },
    { "657.xz_s", "IND-ELF", 0x958ad0db8170ca7eULL },
    { "657.xz_s", "COND-ELF", 0x4959cfac194a7b78ULL },
    { "657.xz_s", "U-ELF", 0xd526fddae117dce1ULL },
    { "401.bzip2", "NoDCF", 0x45ab771536da3f2dULL },
    { "401.bzip2", "DCF", 0x2a0508c27e3ec258ULL },
    { "401.bzip2", "L-ELF", 0x90d5e0cd809f702aULL },
    { "401.bzip2", "RET-ELF", 0x84e180b3dbfd09dcULL },
    { "401.bzip2", "IND-ELF", 0x3709ce9cef2a4edcULL },
    { "401.bzip2", "COND-ELF", 0x2a7a028d7aae103fULL },
    { "401.bzip2", "U-ELF", 0xc6124f5982721525ULL },
    { "403.gcc", "NoDCF", 0xa6397e9490144e51ULL },
    { "403.gcc", "DCF", 0xf8a050b5a99523d9ULL },
    { "403.gcc", "L-ELF", 0x134ca9a2d96d1542ULL },
    { "403.gcc", "RET-ELF", 0xf7818ce8e8fcc806ULL },
    { "403.gcc", "IND-ELF", 0x96047563558fd863ULL },
    { "403.gcc", "COND-ELF", 0x7886791f8cdd5862ULL },
    { "403.gcc", "U-ELF", 0xddd4e090237c9e1aULL },
    { "445.gobmk", "NoDCF", 0xa8891990c694a8a6ULL },
    { "445.gobmk", "DCF", 0x8ed5854f84020f08ULL },
    { "445.gobmk", "L-ELF", 0xe90d5c0db94c36aeULL },
    { "445.gobmk", "RET-ELF", 0x68694b8d3a907e16ULL },
    { "445.gobmk", "IND-ELF", 0xd197e6378f7002bbULL },
    { "445.gobmk", "COND-ELF", 0x5c056da50665f1b4ULL },
    { "445.gobmk", "U-ELF", 0xc256fdff2fd07fc2ULL },
    { "458.sjeng", "NoDCF", 0x65fc1e4c45798384ULL },
    { "458.sjeng", "DCF", 0xadb0c1512ba7f29cULL },
    { "458.sjeng", "L-ELF", 0xc9f31db3dc5c3312ULL },
    { "458.sjeng", "RET-ELF", 0x8fadbce35a1e4de5ULL },
    { "458.sjeng", "IND-ELF", 0x04287431ebe772fbULL },
    { "458.sjeng", "COND-ELF", 0xb2114ad8d6d46207ULL },
    { "458.sjeng", "U-ELF", 0xe86b259e49828e28ULL },
    { "473.astar", "NoDCF", 0xfa0bc55979f91172ULL },
    { "473.astar", "DCF", 0x5cc51731e4963401ULL },
    { "473.astar", "L-ELF", 0xd4fa063ba8cb8593ULL },
    { "473.astar", "RET-ELF", 0x6986433051d52830ULL },
    { "473.astar", "IND-ELF", 0x108eba708a52658aULL },
    { "473.astar", "COND-ELF", 0xe8692c9d0ea42729ULL },
    { "473.astar", "U-ELF", 0xcd8d76bdafbda942ULL },
    { "433.milc", "NoDCF", 0x1e1b4e6dca30b9a0ULL },
    { "433.milc", "DCF", 0x6342a31a5d2d1a61ULL },
    { "433.milc", "L-ELF", 0x77671858782af649ULL },
    { "433.milc", "RET-ELF", 0x79c41022bfda3c1aULL },
    { "433.milc", "IND-ELF", 0x3905f1b939c70560ULL },
    { "433.milc", "COND-ELF", 0x428d5191525196e0ULL },
    { "433.milc", "U-ELF", 0xb7a03730f5c54669ULL },
    { "437.leslie3d", "NoDCF", 0xfdfb0cbf60a5d6c7ULL },
    { "437.leslie3d", "DCF", 0xfdf0083ffbb0418aULL },
    { "437.leslie3d", "L-ELF", 0xf82baf9edfad7af4ULL },
    { "437.leslie3d", "RET-ELF", 0x90c2ce60fcd6a797ULL },
    { "437.leslie3d", "IND-ELF", 0xe801c8a773d49dcdULL },
    { "437.leslie3d", "COND-ELF", 0xf7b0dc5e0e31d343ULL },
    { "437.leslie3d", "U-ELF", 0x6058ec71e7355dcbULL },
    { "srv1.subtest_1", "NoDCF", 0x17c514dc1d94a27dULL },
    { "srv1.subtest_1", "DCF", 0x0697e792dcd83b97ULL },
    { "srv1.subtest_1", "L-ELF", 0xf3b8e094054cb19cULL },
    { "srv1.subtest_1", "RET-ELF", 0x2745b71ff744a334ULL },
    { "srv1.subtest_1", "IND-ELF", 0x156385d631884e55ULL },
    { "srv1.subtest_1", "COND-ELF", 0xc3a37ecad7a39c1cULL },
    { "srv1.subtest_1", "U-ELF", 0x0ee333aa01d6238aULL },
    { "srv1.subtest_2", "NoDCF", 0x03d49bc9ab1d5309ULL },
    { "srv1.subtest_2", "DCF", 0x868275608f67ccd6ULL },
    { "srv1.subtest_2", "L-ELF", 0xf6666578b2c9b38bULL },
    { "srv1.subtest_2", "RET-ELF", 0x4b54d6d869158c74ULL },
    { "srv1.subtest_2", "IND-ELF", 0x3ae385cfb4bead4eULL },
    { "srv1.subtest_2", "COND-ELF", 0x2b2a7d3f4e4b2c32ULL },
    { "srv1.subtest_2", "U-ELF", 0x37d7693e766c9d2bULL },
    { "srv1.subtest_3", "NoDCF", 0xefec2583f1d4aabdULL },
    { "srv1.subtest_3", "DCF", 0x129cd7eea1545e14ULL },
    { "srv1.subtest_3", "L-ELF", 0xfdba38403ac9ffe8ULL },
    { "srv1.subtest_3", "RET-ELF", 0xdda1687db665a8e2ULL },
    { "srv1.subtest_3", "IND-ELF", 0x7b94af7261e3b705ULL },
    { "srv1.subtest_3", "COND-ELF", 0x3ebb6b8604a81a9aULL },
    { "srv1.subtest_3", "U-ELF", 0x20c3ce63f8ff1f51ULL },
    { "srv2.subtest_1", "NoDCF", 0xf263e23b64ef70d6ULL },
    { "srv2.subtest_1", "DCF", 0x8b0c332e3f8b4534ULL },
    { "srv2.subtest_1", "L-ELF", 0x473c28312c7679beULL },
    { "srv2.subtest_1", "RET-ELF", 0x5e22a6da88fe6594ULL },
    { "srv2.subtest_1", "IND-ELF", 0x40296a90f32cd2dbULL },
    { "srv2.subtest_1", "COND-ELF", 0xb713a099dbb7c0ecULL },
    { "srv2.subtest_1", "U-ELF", 0x5a8e4ee79280c5f5ULL },
    { "srv2.subtest_2", "NoDCF", 0x0b509b140276d51aULL },
    { "srv2.subtest_2", "DCF", 0xf784df4fecd8d269ULL },
    { "srv2.subtest_2", "L-ELF", 0xe8b12488d0107f4dULL },
    { "srv2.subtest_2", "RET-ELF", 0x5f7f1e3cdebe7316ULL },
    { "srv2.subtest_2", "IND-ELF", 0xa4250c5c5983fdf8ULL },
    { "srv2.subtest_2", "COND-ELF", 0x23359d56e2bdbdd3ULL },
    { "srv2.subtest_2", "U-ELF", 0xa72135b9373a6875ULL },
    { "srv2.subtest_3", "NoDCF", 0x7a6f4efc8792fcfeULL },
    { "srv2.subtest_3", "DCF", 0xd71f20ff0be2ca3cULL },
    { "srv2.subtest_3", "L-ELF", 0x17d1022d8754370eULL },
    { "srv2.subtest_3", "RET-ELF", 0x77d0eadfa00cb5eeULL },
    { "srv2.subtest_3", "IND-ELF", 0x3a3d2328220460b7ULL },
    { "srv2.subtest_3", "COND-ELF", 0x62f2647b478cfc4aULL },
    { "srv2.subtest_3", "U-ELF", 0x1b4df2a5245d61ffULL },
    { "bwaves_like", "NoDCF", 0xcf03d2823f4be692ULL },
    { "bwaves_like", "DCF", 0xb79b3023fd088857ULL },
    { "bwaves_like", "L-ELF", 0xb8f99dd128b6a2e1ULL },
    { "bwaves_like", "RET-ELF", 0x118790e7406d3ba5ULL },
    { "bwaves_like", "IND-ELF", 0x791f2477edf4b3a0ULL },
    { "bwaves_like", "COND-ELF", 0xbb7822e918f71fd2ULL },
    { "bwaves_like", "U-ELF", 0x78f6469394d3bf23ULL },
    { "lbm_like", "NoDCF", 0x3645bb6dca0f234cULL },
    { "lbm_like", "DCF", 0x8d81c28b410c02d4ULL },
    { "lbm_like", "L-ELF", 0x8cb343b2393d2254ULL },
    { "lbm_like", "RET-ELF", 0x497c28096027066eULL },
    { "lbm_like", "IND-ELF", 0x9b3f553971b45df1ULL },
    { "lbm_like", "COND-ELF", 0x9270ed2a23e98169ULL },
    { "lbm_like", "U-ELF", 0x1696d71345a53c97ULL },
    { "cam4_like", "NoDCF", 0xe7586bab37ff6c7aULL },
    { "cam4_like", "DCF", 0x017c162f456d755bULL },
    { "cam4_like", "L-ELF", 0x3ff528d782291f24ULL },
    { "cam4_like", "RET-ELF", 0xedf6d41cb2a3e427ULL },
    { "cam4_like", "IND-ELF", 0x5a6ac890a663a635ULL },
    { "cam4_like", "COND-ELF", 0x524d1466343b8ec0ULL },
    { "cam4_like", "U-ELF", 0x52e13d7c3677be2fULL },
    { "nab_like", "NoDCF", 0xf612050912be60adULL },
    { "nab_like", "DCF", 0x39970454d389e179ULL },
    { "nab_like", "L-ELF", 0x5736d26e027f3e99ULL },
    { "nab_like", "RET-ELF", 0x13f31afa07540cdfULL },
    { "nab_like", "IND-ELF", 0xdcb80b5892aafa64ULL },
    { "nab_like", "COND-ELF", 0x6f0b6cd72f480cd4ULL },
    { "nab_like", "U-ELF", 0x10c562a854e3d216ULL },
    { "perlbench_like", "NoDCF", 0xc47ebbbf4cb02525ULL },
    { "perlbench_like", "DCF", 0xa99d7b9adf03b5a6ULL },
    { "perlbench_like", "L-ELF", 0xfe9f3a8778459d81ULL },
    { "perlbench_like", "RET-ELF", 0x931ac0ae5172e332ULL },
    { "perlbench_like", "IND-ELF", 0x2495f918cffe20fcULL },
    { "perlbench_like", "COND-ELF", 0xc1422af6c2f825a4ULL },
    { "perlbench_like", "U-ELF", 0x6c14b59ec28ba987ULL },
    { "x264_like", "NoDCF", 0x49239843770296c8ULL },
    { "x264_like", "DCF", 0x3b130779630c078eULL },
    { "x264_like", "L-ELF", 0xdb2da72e034db44eULL },
    { "x264_like", "RET-ELF", 0xeea5f6e59eb066adULL },
    { "x264_like", "IND-ELF", 0xa322a6bb12a58b23ULL },
    { "x264_like", "COND-ELF", 0x5071ae2a5c6bff96ULL },
    { "x264_like", "U-ELF", 0x1e3fd74e01382195ULL },
    { "hmmer_like", "NoDCF", 0x89473013526e5d45ULL },
    { "hmmer_like", "DCF", 0x16a28b76887f1355ULL },
    { "hmmer_like", "L-ELF", 0x1c2a6dfe5995d8f2ULL },
    { "hmmer_like", "RET-ELF", 0x330c146a9cd29500ULL },
    { "hmmer_like", "IND-ELF", 0xabbb134af5145d9bULL },
    { "hmmer_like", "COND-ELF", 0x6dd0e04d5c6a3d81ULL },
    { "hmmer_like", "U-ELF", 0x5c729049e25622dfULL },
    { "h264ref_like", "NoDCF", 0x1d9364e8a98dd9ffULL },
    { "h264ref_like", "DCF", 0xf624f975aba16053ULL },
    { "h264ref_like", "L-ELF", 0xd0b304d1e66f9f74ULL },
    { "h264ref_like", "RET-ELF", 0x75b854072a512bffULL },
    { "h264ref_like", "IND-ELF", 0xa48d1328f0965ad1ULL },
    { "h264ref_like", "COND-ELF", 0x6e07f646355e944eULL },
    { "h264ref_like", "U-ELF", 0xb57d7beace26f4b4ULL },
    { "gromacs_like", "NoDCF", 0xe63a0f8138b8cb37ULL },
    { "gromacs_like", "DCF", 0xffd145ef064e9a14ULL },
    { "gromacs_like", "L-ELF", 0x28cc74f57525f291ULL },
    { "gromacs_like", "RET-ELF", 0xdf092375e5deb2e1ULL },
    { "gromacs_like", "IND-ELF", 0xa363aaaa930271ecULL },
    { "gromacs_like", "COND-ELF", 0x0d10b48c32eef68fULL },
    { "gromacs_like", "U-ELF", 0x0dea041a8aebb728ULL },
    { "zeusmp_like", "NoDCF", 0x8463b73ea9735201ULL },
    { "zeusmp_like", "DCF", 0xa1c6c0bbe6aba058ULL },
    { "zeusmp_like", "L-ELF", 0xaece998b4c4707bcULL },
    { "zeusmp_like", "RET-ELF", 0x8823747ca46821f7ULL },
    { "zeusmp_like", "IND-ELF", 0x0ba1feac244ab20dULL },
    { "zeusmp_like", "COND-ELF", 0x94b94d1a5a0cfc50ULL },
    { "zeusmp_like", "U-ELF", 0xfe6cde8cab7ecc21ULL },
};

constexpr FrontendVariant allVariants[] = {
    FrontendVariant::NoDcf,   FrontendVariant::Dcf,
    FrontendVariant::LElf,    FrontendVariant::RetElf,
    FrontendVariant::IndElf,  FrontendVariant::CondElf,
    FrontendVariant::UElf,
};

void
runAllGoldens(const char *mode)
{
    RunOptions opts;
    opts.warmupInsts = 20000;
    opts.measureInsts = 50000;

    std::size_t g = 0;
    for (const char *name :
         {"641.leela", "602.gcc", "srv2.subtest_1"}) {
        const WorkloadSpec *spec = findWorkload(name);
        ASSERT_NE(spec, nullptr) << name;
        const Program prog = buildWorkload(*spec);
        for (FrontendVariant v : allVariants) {
            ASSERT_LT(g, std::size(goldens));
            const Golden &want = goldens[g++];
            const RunResult r = runVariant(prog, v, opts);
            EXPECT_STREQ(r.workload.c_str(), want.workload);
            EXPECT_STREQ(r.variant.c_str(), want.variant);
            EXPECT_EQ(r.cycles, want.cycles)
                << want.workload << " / " << want.variant << " ("
                << mode << ")";
            EXPECT_EQ(r.insts, want.insts)
                << want.workload << " / " << want.variant << " ("
                << mode << ")";
        }
    }
    EXPECT_EQ(g, std::size(goldens));
}

/**
 * FNV-1a over every (name, value) of RunResult::forEachField: strings
 * by their characters, doubles by bit pattern, counters as u64. Any
 * change to any reported metric changes the digest.
 */
std::uint64_t
resultDigest(const RunResult &r)
{
    Fnv1a h;
    r.forEachField([&](const char *name, const auto &value) {
        using T = std::decay_t<decltype(value)>;
        h.str(name);
        if constexpr (std::is_same_v<T, std::string>)
            h.str(value);
        else if constexpr (std::is_same_v<T, double>)
            h.f64(value);
        else
            h.u64(value);
    });
    return h.value();
}

/** RAII enable/disable of the process-wide trace cache. */
struct ScopedTraceEnable
{
    bool prev;
    explicit ScopedTraceEnable(bool on)
        : prev(TraceCache::instance().enabled())
    {
        TraceCache::instance().setEnabled(on);
    }
    ~ScopedTraceEnable() { TraceCache::instance().setEnabled(prev); }
};

// The default path: oracle streams backed by compiled traces (the
// TraceCache is on by default).
TEST(GoldenCycles, EveryVariantMatchesPreOptimizationCounts)
{
    ScopedTraceEnable traces(true);
    runAllGoldens("compiled traces");
}

// The reference path: per-instruction lazy generation. Matching the
// same goldens as the compiled path proves trace compilation is
// behavior-neutral across every variant and workload family.
TEST(GoldenCycles, LazyGenerationMatchesTheSameGoldens)
{
    ScopedTraceEnable traces(false);
    runAllGoldens("lazy generation");
}

// Short windows over the whole catalog: every workload family and
// every variant, pinned on every reported metric rather than only
// cycles and instructions. A mismatch prints the cell's table line so
// an intentional timing change can re-capture the table.
TEST(GoldenCycles, EveryCatalogCellMatchesItsDigest)
{
    RunOptions opts;
    opts.warmupInsts = 2000;
    opts.measureInsts = 8000;

    std::size_t g = 0;
    for (const WorkloadSpec &spec : workloadCatalog()) {
        const Program prog = buildWorkload(spec);
        for (FrontendVariant v : allVariants) {
            const RunResult r = runVariant(prog, v, opts);
            const std::uint64_t got = resultDigest(r);
            const CatalogDigest *want =
                g < std::size(catalogDigests) ? &catalogDigests[g]
                                              : nullptr;
            ++g;
            const bool match = want != nullptr &&
                               r.workload == want->workload &&
                               r.variant == want->variant &&
                               got == want->digest;
            EXPECT_TRUE(match)
                << r.workload << " / " << r.variant << ": got 0x"
                << std::hex << got;
            if (!match)
                std::printf("    { \"%s\", \"%s\", 0x%016llxULL },\n",
                            r.workload.c_str(), r.variant.c_str(),
                            (unsigned long long)got);
        }
    }
    EXPECT_EQ(g, std::size(catalogDigests));
}

} // namespace
