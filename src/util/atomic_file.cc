/**
 * @file
 * Atomic write implementation (POSIX: open/write/fsync/rename) and
 * the store-directory check.
 */

#include "util/atomic_file.hh"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace cactid::util {

namespace {

void
setErr(std::string *err, const std::string &what)
{
    if (err)
        *err = what + ": " + std::strerror(errno);
}

/** Directory part of @p path ("." when the path has no slash). */
std::string
dirOf(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return ".";
    return slash == 0 ? "/" : path.substr(0, slash);
}

/** Best-effort fsync of the containing directory after a rename. */
void
syncDir(const std::string &dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
}

} // namespace

bool
writeFileAtomic(const std::string &path, const std::string &data,
                std::string *err)
{
    // Same-directory temporary: rename() must not cross filesystems,
    // and a per-pid suffix keeps concurrent writers off each other.
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                          0644);
    if (fd < 0) {
        setErr(err, "cannot create " + tmp);
        return false;
    }
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            ::write(fd, data.data() + off, data.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            setErr(err, "write " + tmp);
            ::close(fd);
            ::unlink(tmp.c_str());
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        setErr(err, "fsync " + tmp);
        ::close(fd);
        ::unlink(tmp.c_str());
        return false;
    }
    if (::close(fd) != 0) {
        setErr(err, "close " + tmp);
        ::unlink(tmp.c_str());
        return false;
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        setErr(err, "rename " + tmp + " -> " + path);
        ::unlink(tmp.c_str());
        return false;
    }
    syncDir(dirOf(path));
    return true;
}

bool
writeFileAtomic(const std::string &path,
                const std::function<void(std::ostream &)> &fn,
                std::string *err)
{
    std::ostringstream os;
    fn(os);
    if (!os) {
        if (err)
            *err = "render failed for " + path;
        return false;
    }
    return writeFileAtomic(path, os.str(), err);
}

bool
readFile(const std::string &path, std::string &out, std::string *err)
{
    std::ifstream f(path, std::ios::binary);
    if (!f) {
        setErr(err, "cannot open " + path);
        return false;
    }
    std::ostringstream ss;
    ss << f.rdbuf();
    if (!f.good() && !f.eof()) {
        setErr(err, "read " + path);
        return false;
    }
    out = ss.str();
    return true;
}

void
ensureDirectory(const std::string &dir, const std::string &what)
{
    ::mkdir(dir.c_str(), 0755); // EEXIST is fine
    // Checked here, so an unusable store fails before its first
    // write rather than as a write error after the work.
    struct stat st;
    if (::stat(dir.c_str(), &st) != 0)
        throw std::invalid_argument(what + " " + dir + ": " +
                                    std::strerror(errno));
    if (!S_ISDIR(st.st_mode))
        throw std::invalid_argument(what + " " + dir +
                                    " is not a directory");
}

} // namespace cactid::util
