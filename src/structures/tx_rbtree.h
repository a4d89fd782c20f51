/**
 * @file
 * Transactional red-black tree, ported from the java.util.TreeMap
 * algorithm (the paper derives its microbenchmark from the Java 6.0
 * JDK TreeMap, Section 3.5). Exposes the key-value put/delete/get
 * interface the benchmark uses.
 */

#ifndef RHTM_STRUCTURES_TX_RBTREE_H
#define RHTM_STRUCTURES_TX_RBTREE_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/api/txn.h"

namespace rhtm
{

/**
 * A red-black tree map from int64 keys to int64 values.
 *
 * All mutating and reading operations take the caller's transaction
 * handle, so tree operations compose with other transactional work.
 * The tree header (root pointer) lives in the object; nodes are
 * allocated from the transactional heap.
 *
 * Structural validation helpers are provided for tests; they must only
 * be called while no transactions are running.
 */
class TxRbTree
{
  public:
    TxRbTree() : root_(nullptr) {}

    TxRbTree(const TxRbTree &) = delete;
    TxRbTree &operator=(const TxRbTree &) = delete;

    /**
     * Look up @p key.
     * @return true and set @p value_out when present.
     */
    bool get(Txn &tx, int64_t key, int64_t &value_out) const;

    /** True when @p key is present. */
    bool contains(Txn &tx, int64_t key) const;

    /**
     * Insert or update @p key.
     * @return true if the key was newly inserted.
     */
    bool put(Txn &tx, int64_t key, int64_t value);

    /**
     * Remove @p key.
     * @return true if the key was present.
     */
    bool remove(Txn &tx, int64_t key);

    /**
     * Append every (key, value) with lo <= key <= hi to @p out in
     * ascending key order, stopping after @p limit entries (0 = no
     * limit). The in-order walk (a ceiling descent, then a stack of
     * pending left-spine nodes) reads every traversed link
     * transactionally, so the scan serializes with concurrent
     * put/remove like any other operation. It reads no parent link and
     * no key twice.
     * @return number of entries appended.
     */
    size_t scanRange(Txn &tx, int64_t lo, int64_t hi, size_t limit,
                     std::vector<std::pair<int64_t, int64_t>> &out) const;

    /** Node count by traversal; quiescent use only. */
    uint64_t sizeUnsync() const;

    /**
     * Check every red-black invariant (BST order, root black, no
     * red-red edges, uniform black height, parent links). Quiescent
     * use only.
     *
     * @param why Optional failure description.
     * @return true when all invariants hold.
     */
    bool validateStructure(std::string *why = nullptr) const;

    /** Free every node into @p mem; quiescent use only. */
    void clearUnsync(ThreadMem &mem);

  private:
    struct Node
    {
        uint64_t key;
        uint64_t value;
        Node *left;
        Node *right;
        Node *parent;
        uint64_t color;
    };

    static constexpr uint64_t kRed = 0;
    static constexpr uint64_t kBlack = 1;

    // TreeMap-style helpers, null-tolerant.
    static uint64_t colorOf(Txn &tx, Node *n);
    static Node *parentOf(Txn &tx, Node *n);
    static Node *leftOf(Txn &tx, Node *n);
    static Node *rightOf(Txn &tx, Node *n);
    static void setColor(Txn &tx, Node *n, uint64_t color);

    Node *getEntry(Txn &tx, int64_t key) const;
    Node *successor(Txn &tx, Node *t) const;
    void rotateLeft(Txn &tx, Node *p);
    void rotateRight(Txn &tx, Node *p);
    void fixAfterInsertion(Txn &tx, Node *x);
    void fixAfterDeletion(Txn &tx, Node *x);
    void deleteEntry(Txn &tx, Node *p);

    /** Validation walker; returns black height or -1 on failure. */
    int validateNode(const Node *n, const Node *parent, int64_t lo,
                     bool has_lo, int64_t hi, bool has_hi,
                     std::string *why) const;

    Node *root_;
};

} // namespace rhtm

#endif // RHTM_STRUCTURES_TX_RBTREE_H
