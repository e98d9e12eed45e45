#include "workload/compiled_trace.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/error.hh"
#include "common/hash.hh"
#include "common/logging.hh"

#if defined(__unix__) || defined(__APPLE__)
#define ELFSIM_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace elfsim {

namespace {

constexpr char traceMagic[16] = "elfsim-trace-v4"; // includes the NUL

/**
 * Content-key salt, independent of the magic above. The key names the
 * *stream* (program content + length), not the container layout, so a
 * container bump keeps every key: an artifact in a retired format
 * fails the magic check and recompiles into the current format under
 * the same key and path.
 */
constexpr char traceKeySalt[] = "elfsim-trace-v1";

/** Fixed-size part of the file, through the checksum field. */
constexpr std::size_t headerBytes = 16 + 11 * 8;

/** Header scalar fields, in file order (after the magic). */
struct TraceHeader
{
    std::uint64_t key = 0;
    std::uint64_t count = 0;
    std::uint64_t callDepth = 0;
    std::uint64_t condN = 0;
    std::uint64_t indN = 0;
    std::uint64_t memN = 0;
    std::uint64_t endPC = 0;
    std::uint64_t nBranch = 0;
    std::uint64_t nRun = 0;
    std::uint64_t nMem = 0;
    std::uint64_t checksum = 0;
};

std::uint64_t
bitWordsFor(std::uint64_t count)
{
    return (count + 63) / 64;
}

/** Total file size implied by the header (no overflow for the
 *  sanity-capped field values enforced by the loader). */
std::uint64_t
expectedFileSize(const TraceHeader &h)
{
    const std::uint64_t u64s = h.callDepth + h.condN + h.indN + h.memN +
                               h.nBranch + bitWordsFor(h.nBranch) +
                               h.nRun + h.nMem + bitWordsFor(h.nMem);
    const std::uint64_t u32s = h.nBranch + h.nRun + h.nMem;
    return headerBytes + 8 * u64s + 4 * u32s;
}

/** True iff the @a n positions at @a pos strictly ascend below
 *  @a count. */
bool
positionsAscendBelow(const std::uint32_t *pos, std::uint64_t n,
                     std::uint64_t count)
{
    if (n == 0)
        return true;
    bool ascending = true;
    for (std::uint64_t j = 1; j < n; ++j)
        ascending &= pos[j] > pos[j - 1];
    return ascending && pos[n - 1] < count;
}

/** Append bit @a bit as element @a j of a packed bit set. */
void
pushBit(std::vector<std::uint64_t> &words, std::size_t j, bool bit)
{
    if ((j & 63) == 0)
        words.push_back(0);
    if (bit)
        words[j >> 6] |= std::uint64_t(1) << (j & 63);
}

/**
 * Checksum state after every header scalar except the checksum itself;
 * the section bytes that follow the header are fed on top of it.
 */
Checksum64
headerChecksum(const TraceHeader &h)
{
    Checksum64 sum;
    sum.u64(h.key)
        .u64(h.count)
        .u64(h.callDepth)
        .u64(h.condN)
        .u64(h.indN)
        .u64(h.memN)
        .u64(h.endPC)
        .u64(h.nBranch)
        .u64(h.nRun)
        .u64(h.nMem);
    return sum;
}

/** RAII holder keeping a loaded file image alive for the views. */
struct FileBacking
{
    void *map = nullptr;       ///< mmap base (null for heap images)
    std::size_t mapLen = 0;
    std::vector<char> heap;    ///< read() fallback image

    const char *
    data() const
    {
        return map ? static_cast<const char *>(map) : heap.data();
    }
    std::size_t size() const { return map ? mapLen : heap.size(); }

    ~FileBacking()
    {
#ifdef ELFSIM_HAVE_MMAP
        if (map)
            ::munmap(map, mapLen);
#endif
    }
};

/** Map (or read) a whole file; null result means "cannot open". */
std::shared_ptr<FileBacking>
openFileImage(const std::string &path)
{
    auto backing = std::make_shared<FileBacking>();
#ifdef ELFSIM_HAVE_MMAP
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
        struct stat st;
        if (::fstat(fd, &st) == 0 && st.st_size > 0) {
            void *p = ::mmap(nullptr, std::size_t(st.st_size), PROT_READ,
                             MAP_PRIVATE, fd, 0);
            if (p != MAP_FAILED) {
                backing->map = p;
                backing->mapLen = std::size_t(st.st_size);
                ::close(fd);
                return backing;
            }
        }
        ::close(fd);
    }
#endif
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return nullptr;
    in.seekg(0, std::ios::end);
    const std::streamoff len = in.tellg();
    in.seekg(0, std::ios::beg);
    backing->heap.resize(len > 0 ? std::size_t(len) : 0);
    if (len > 0 &&
        !in.read(backing->heap.data(), std::streamsize(len)))
        return nullptr;
    return backing;
}

} // namespace

std::uint64_t
CompiledTrace::key(const Program &prog, InstCount count)
{
    Fnv1a h;
    h.str(traceKeySalt); // stream-content salt, NOT the magic
    h.u64(prog.contentHash()).u64(count);
    return h.value();
}

std::shared_ptr<const CompiledTrace>
CompiledTrace::compile(const Program &prog, InstCount count)
{
    std::shared_ptr<CompiledTrace> t(new CompiledTrace);
    t->count_ = count;
    t->key_ = key(prog, count);

    OracleGen gen;
    gen.reset(prog);
    // One generation pass writes the three tables: a run opens at
    // position 0 and after every taken transfer; every branch-kinded
    // and memory instruction contributes one event in stream order.
    bool newRun = true;
    for (InstCount i = 0; i < count; ++i) {
        const OracleInst oi = gen.step(prog);
        const StaticInst &si = *oi.si;
        if (newRun) {
            t->ownRunPos_.push_back(std::uint32_t(i));
            t->ownRunPC_.push_back(si.pc);
        }
        if (si.branch != BranchKind::None) {
            pushBit(t->ownTakenWords_, t->ownBranchPos_.size(), oi.taken);
            t->ownBranchPos_.push_back(std::uint32_t(i));
            t->ownBranchTarget_.push_back(oi.nextPC);
        }
        if (si.isMemInst()) {
            pushBit(t->ownStoreWords_, t->ownMemPos_.size(), si.isStore());
            t->ownMemPos_.push_back(std::uint32_t(i));
            t->ownMemAddr_.push_back(oi.memAddr);
        }
        newRun = oi.taken;
    }
    t->end_ = std::move(gen);
    t->nBranch_ = t->ownBranchPos_.size();
    t->nRun_ = t->ownRunPos_.size();
    t->nMem_ = t->ownMemPos_.size();

    t->branchTarget_ = t->ownBranchTarget_.data();
    t->takenWords_ = t->ownTakenWords_.data();
    t->runPC_ = t->ownRunPC_.data();
    t->memAddr_ = t->ownMemAddr_.data();
    t->storeWords_ = t->ownStoreWords_.data();
    t->branchPos_ = t->ownBranchPos_.data();
    t->runPos_ = t->ownRunPos_.data();
    t->memPos_ = t->ownMemPos_.data();
    return t;
}

void
CompiledTrace::save(const std::string &path) const
{
    TraceHeader h;
    h.key = key_;
    h.count = count_;
    h.callDepth = end_.callStack.size();
    h.condN = end_.condCount.size();
    h.indN = end_.indCount.size();
    h.memN = end_.memCount.size();
    h.endPC = end_.pc;
    h.nBranch = nBranch_;
    h.nRun = nRun_;
    h.nMem = nMem_;

    // The sections, in file order, straight from the trace's tables.
    struct Section
    {
        const void *data; // may be null when bytes == 0
        std::size_t bytes;
    };
    const Section sections[] = {
        {end_.callStack.data(), 8 * h.callDepth},
        {end_.condCount.data(), 8 * h.condN},
        {end_.indCount.data(), 8 * h.indN},
        {end_.memCount.data(), 8 * h.memN},
        {branchTarget_, 8 * nBranch_},
        {takenWords_, 8 * bitWordsFor(nBranch_)},
        {runPC_, 8 * nRun_},
        {memAddr_, 8 * nMem_},
        {storeWords_, 8 * bitWordsFor(nMem_)},
        {branchPos_, 4 * nBranch_},
        {runPos_, 4 * nRun_},
        {memPos_, 4 * nMem_},
    };
    Checksum64 sum = headerChecksum(h);
    for (const Section &s : sections)
        sum.bytes(s.data, s.bytes);
    h.checksum = sum.value();
    const std::uint64_t scalars[] = {
        h.key,  h.count,   h.callDepth, h.condN, h.indN,    h.memN,
        h.endPC, h.nBranch, h.nRun,     h.nMem,  h.checksum};

    // Write to a private temp file and rename into place: readers of
    // a shared cache directory only ever see complete files.
    const std::string tmp =
        path + ".tmp." + std::to_string(
#ifdef ELFSIM_HAVE_MMAP
                              std::uint64_t(::getpid())
#else
                              std::uint64_t(0)
#endif
        );
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os)
        throw IoError(errorf("cannot open '%s' for writing",
                             tmp.c_str()));
    os.write(traceMagic, sizeof(traceMagic));
    os.write(reinterpret_cast<const char *>(scalars), sizeof(scalars));
    for (const Section &s : sections)
        if (s.bytes != 0)
            os.write(static_cast<const char *>(s.data),
                     std::streamsize(s.bytes));
    os.close(); // flushes; a failed flush fails the stream
    if (!os) {
        std::remove(tmp.c_str());
        throw IoError(errorf("write to '%s' failed", tmp.c_str()));
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw IoError(errorf("cannot rename '%s' into '%s'",
                             tmp.c_str(), path.c_str()));
    }
}

std::shared_ptr<const CompiledTrace>
CompiledTrace::load(const std::string &path, std::uint64_t expect_key)
{
    std::shared_ptr<FileBacking> backing = openFileImage(path);
    if (!backing)
        throw IoError(errorf("cannot read trace file '%s'",
                             path.c_str()));
    const char *data = backing->data();
    const std::size_t size = backing->size();
    const std::string what = errorf("trace file '%s'", path.c_str());

    if (size < headerBytes)
        throw ParseError(errorf("%s truncated "
                                "(%zu bytes, header needs %zu)",
                                what.c_str(), size, headerBytes));
    if (std::memcmp(data, traceMagic, sizeof(traceMagic)) != 0)
        throw ParseError(errorf("%s has a bad magic "
                                "(not an elfsim-trace-v4 image)",
                                what.c_str()));

    TraceHeader h;
    std::memcpy(&h.key, data + 16, 11 * 8); // scalars are contiguous
    if (h.key != expect_key)
        throw ParseError(errorf(
            "%s is stale: key %016llx, expected %016llx",
            what.c_str(), (unsigned long long)h.key,
            (unsigned long long)expect_key));

    // Field sanity before any size arithmetic (caps far above real
    // values keep a corrupt length from overflowing the size check).
    // Event-table lengths are bounded by the instruction count: every
    // event maps to one instruction, and a run needs a first one.
    constexpr std::uint64_t fieldCap = std::uint64_t(1) << 32;
    if (h.count >= fieldCap || h.callDepth > OracleGen::maxCallDepth ||
        h.condN >= fieldCap || h.indN >= fieldCap || h.memN >= fieldCap)
        throw ParseError(errorf("%s has implausible "
                                "section lengths", what.c_str()));
    if (h.nBranch > h.count || h.nMem > h.count || h.nRun > h.count ||
        (h.count > 0) != (h.nRun > 0))
        throw ParseError(errorf("%s has implausible "
                                "event-table lengths", what.c_str()));
    if (size != expectedFileSize(h))
        throw ParseError(errorf(
            "%s size mismatch (%zu bytes, header "
            "implies %llu)", what.c_str(), size,
            (unsigned long long)expectedFileSize(h)));

    const char *sections = data + headerBytes;
    if (headerChecksum(h).bytes(sections, size - headerBytes).value() !=
        h.checksum)
        throw ParseError(errorf("%s failed its checksum "
                                "(corrupt or torn write)",
                                what.c_str()));

    std::shared_ptr<CompiledTrace> t(new CompiledTrace);
    t->count_ = h.count;
    t->key_ = h.key;
    t->mappedBytes_ = backing->map ? backing->mapLen : 0;
    t->backing_ = std::move(backing);

    const std::uint64_t *u64s =
        reinterpret_cast<const std::uint64_t *>(sections);
    const auto takeU64s = [&u64s](std::vector<std::uint64_t> &out,
                                  std::size_t n) {
        out.assign(u64s, u64s + n);
        u64s += n;
    };
    t->end_.pc = h.endPC;
    t->end_.callStack.reserve(OracleGen::maxCallDepth);
    t->end_.callStack.assign(u64s, u64s + h.callDepth);
    u64s += h.callDepth;
    takeU64s(t->end_.condCount, h.condN);
    takeU64s(t->end_.indCount, h.indN);
    takeU64s(t->end_.memCount, h.memN);

    t->nBranch_ = h.nBranch;
    t->nRun_ = h.nRun;
    t->nMem_ = h.nMem;

    t->branchTarget_ = u64s;
    u64s += h.nBranch;
    t->takenWords_ = u64s;
    u64s += bitWordsFor(h.nBranch);
    t->runPC_ = u64s;
    u64s += h.nRun;
    t->memAddr_ = u64s;
    u64s += h.nMem;
    t->storeWords_ = u64s;
    u64s += bitWordsFor(h.nMem);

    const std::uint32_t *u32s =
        reinterpret_cast<const std::uint32_t *>(u64s);
    t->branchPos_ = u32s;
    u32s += h.nBranch;
    t->runPos_ = u32s;
    u32s += h.nRun;
    t->memPos_ = u32s;

    // Structure the readers index by: the seek searches and the event
    // cursors assume ascending positions inside the prefix, and the
    // run lookup a first run at 0. A checksum-valid file that breaks
    // this must never be read out of bounds.
    if (!positionsAscendBelow(t->branchPos_, h.nBranch, h.count) ||
        !positionsAscendBelow(t->runPos_, h.nRun, h.count) ||
        !positionsAscendBelow(t->memPos_, h.nMem, h.count) ||
        (h.nRun > 0 && t->runPos_[0] != 0))
        throw ParseError(errorf("%s has a malformed event table "
                                "(positions out of order or past "
                                "the prefix)", what.c_str()));
    return t;
}

InstCount
CompiledTrace::firstBranchAtOrAfter(InstCount pos) const
{
    const std::uint32_t *it = std::lower_bound(
        branchPos_, branchPos_ + nBranch_, std::uint32_t(pos));
    return InstCount(it - branchPos_);
}

InstCount
CompiledTrace::firstMemAtOrAfter(InstCount pos) const
{
    const std::uint32_t *it = std::lower_bound(
        memPos_, memPos_ + nMem_, std::uint32_t(pos));
    return InstCount(it - memPos_);
}

InstCount
CompiledTrace::runContaining(InstCount pos) const
{
    ELFSIM_ASSERT(pos < count_, "run lookup past the compiled prefix");
    const std::uint32_t *it = std::upper_bound(
        runPos_, runPos_ + nRun_, std::uint32_t(pos));
    return InstCount(it - runPos_) - 1; // runPos_[0] == 0 always
}

} // namespace elfsim
