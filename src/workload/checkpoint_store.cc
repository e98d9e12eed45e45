#include "workload/checkpoint_store.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <thread>

#include "common/error.hh"
#include "common/hash.hh"
#include "common/logging.hh"

namespace elfsim {

namespace {

constexpr char ckptMagic[16] = "elfsim-ckpt-v2"; // NUL-padded to 16

/** Fixed-size part of the file, through the checksum field. */
constexpr std::size_t headerBytes = 16 + 4 * 8;

/** Far above any real payload; caps corrupt length fields. */
constexpr std::uint64_t payloadCap = std::uint64_t(1) << 34;

std::uint64_t
contentChecksum(std::uint64_t key, std::uint64_t position,
                std::uint64_t payload_len, const void *payload)
{
    Checksum64 sum;
    sum.u64(key).u64(position).u64(payload_len);
    sum.bytes(payload, std::size_t(payload_len));
    return sum.value();
}

} // namespace

CheckpointStore::CheckpointStore()
{
    if (const char *env = std::getenv("ELFSIM_CKPT_CACHE")) {
        if (*env)
            dir = env;
    }
}

CheckpointStore &
CheckpointStore::instance()
{
    static CheckpointStore store;
    return store;
}

std::uint64_t
CheckpointStore::key(const Program &prog, std::uint64_t config_fp,
                     InstCount sample_period, InstCount sample_length,
                     InstCount sample_warmup, InstCount position)
{
    Fnv1a h;
    h.str(ckptMagic); // format version participates in the key
    // Program *content*, hashed once when the program was built, so
    // identically-built programs share artifacts regardless of name.
    h.u64(prog.contentHash());
    h.u64(config_fp);
    // The warm state at a position depends on the entire earlier
    // execution schedule, which the sampling parameters determine.
    h.u64(sample_period).u64(sample_length).u64(sample_warmup);
    h.u64(position);
    return h.value();
}

std::string
CheckpointStore::pathForKey(const std::string &name,
                            std::uint64_t key) const
{
    return artifactPath(dir, name, key, ".eckpt", "ckpt");
}

std::string
CheckpointStore::filePath(const std::string &name,
                          std::uint64_t key) const
{
    std::lock_guard<std::mutex> lock(mtx);
    if (dir.empty())
        return "";
    return pathForKey(name, key);
}

bool
CheckpointStore::usable() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return on && !dir.empty();
}

bool
CheckpointStore::load(const std::string &name, std::uint64_t key,
                      InstCount position,
                      std::vector<std::uint8_t> &payload)
{
    std::string path;
    {
        std::lock_guard<std::mutex> lock(mtx);
        if (!on || dir.empty())
            return false;
        path = pathForKey(name, key);
    }

    const auto miss = [&] {
        std::lock_guard<std::mutex> lock(mtx);
        ++counters.misses;
        return false;
    };
    const auto failure = [&](const char *what) {
        ELFSIM_WARN("checkpoint store: %s '%s'; falling back to "
                    "fast-forward", what, path.c_str());
        std::lock_guard<std::mutex> lock(mtx);
        ++counters.loadFailures;
        ++counters.misses;
        return false;
    };

    std::ifstream in(path, std::ios::binary);
    if (!in)
        return miss(); // absent: the common cold-cache case

    in.seekg(0, std::ios::end);
    const std::streamoff len = in.tellg();
    in.seekg(0, std::ios::beg);
    if (len < std::streamoff(headerBytes))
        return failure("truncated artifact");

    char magic[16];
    std::uint64_t scalars[4]; // key, position, payloadLen, checksum
    if (!in.read(magic, sizeof(magic)) ||
        !in.read(reinterpret_cast<char *>(scalars), sizeof(scalars)))
        return failure("unreadable artifact");
    if (std::memcmp(magic, ckptMagic, sizeof(magic)) != 0)
        return failure("bad magic in");
    if (scalars[0] != key)
        return failure("stale key in");
    if (scalars[1] != position)
        return failure("wrong position in");
    if (scalars[2] > payloadCap ||
        std::uint64_t(len) != headerBytes + scalars[2])
        return failure("size mismatch in");

    payload.resize(std::size_t(scalars[2]));
    if (!payload.empty() &&
        !in.read(reinterpret_cast<char *>(payload.data()),
                 std::streamsize(payload.size())))
        return failure("unreadable payload in");
    if (contentChecksum(scalars[0], scalars[1], scalars[2],
                        payload.data()) != scalars[3])
        return failure("checksum mismatch in");

    std::lock_guard<std::mutex> lock(mtx);
    ++counters.hits;
    counters.bytesRead += headerBytes + payload.size();
    return true;
}

void
CheckpointStore::save(const std::string &name, std::uint64_t key,
                      InstCount position,
                      const std::vector<std::uint8_t> &payload)
{
    std::string path;
    {
        std::lock_guard<std::mutex> lock(mtx);
        if (!on || dir.empty())
            return;
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        path = pathForKey(name, key);
    }

    // Write to a private temp file and rename into place: readers of
    // a shared cache directory only ever see complete files.
    const std::string tmp =
        path + ".tmp." +
        std::to_string(std::uint64_t(
            std::hash<std::thread::id>{}(std::this_thread::get_id())));
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os) {
            ELFSIM_WARN("checkpoint store: cannot open '%s' for "
                        "writing (artifact not saved)", tmp.c_str());
            return;
        }
        const std::uint64_t scalars[4] = {
            key, position, payload.size(),
            contentChecksum(key, position, payload.size(),
                            payload.data())};
        os.write(ckptMagic, sizeof(ckptMagic));
        os.write(reinterpret_cast<const char *>(scalars),
                 sizeof(scalars));
        if (!payload.empty())
            os.write(reinterpret_cast<const char *>(payload.data()),
                     std::streamsize(payload.size()));
        if (!os) {
            ELFSIM_WARN("checkpoint store: write to '%s' failed "
                        "(artifact not saved)", tmp.c_str());
            std::remove(tmp.c_str());
            return;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        ELFSIM_WARN("checkpoint store: cannot rename '%s' into '%s' "
                    "(artifact not saved)", tmp.c_str(), path.c_str());
        return;
    }

    std::lock_guard<std::mutex> lock(mtx);
    ++counters.saves;
    counters.bytesWritten += headerBytes + payload.size();
}

void
CheckpointStore::setDirectory(std::string d)
{
    std::lock_guard<std::mutex> lock(mtx);
    dir = std::move(d);
}

std::string
CheckpointStore::directory() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return dir;
}

void
CheckpointStore::setEnabled(bool enable)
{
    std::lock_guard<std::mutex> lock(mtx);
    on = enable;
}

bool
CheckpointStore::enabled() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return on;
}

CkptStats
CheckpointStore::stats() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return counters;
}

void
CheckpointStore::clearStats()
{
    std::lock_guard<std::mutex> lock(mtx);
    counters = CkptStats{};
}

} // namespace elfsim
