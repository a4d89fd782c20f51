#include "src/structures/tx_hashmap.h"

namespace rhtm
{

TxHashMap::TxHashMap(unsigned bucket_count_log2)
    : bucketCount_(size_t(1) << bucket_count_log2),
      shift_(64 - bucket_count_log2),
      buckets_(new Node *[bucketCount_]())
{}

bool
TxHashMap::get(Txn &tx, uint64_t key, uint64_t &value_out) const
{
    Node *n = tx.loadPtr(&buckets_[bucketOf(key)]);
    while (n != nullptr) {
        if (tx.load(&n->key) == key) {
            value_out = tx.load(&n->value);
            return true;
        }
        n = tx.loadPtr(&n->next);
    }
    return false;
}

bool
TxHashMap::contains(Txn &tx, uint64_t key) const
{
    uint64_t ignored;
    return get(tx, key, ignored);
}

bool
TxHashMap::put(Txn &tx, uint64_t key, uint64_t value)
{
    Node **head = &buckets_[bucketOf(key)];
    Node *n = tx.loadPtr(head);
    while (n != nullptr) {
        if (tx.load(&n->key) == key) {
            tx.store(&n->value, value);
            return false;
        }
        n = tx.loadPtr(&n->next);
    }
    Node *fresh = tx.allocObject<Node>();
    tx.store(&fresh->key, key);
    tx.store(&fresh->value, value);
    tx.storePtr(&fresh->next, tx.loadPtr(head));
    tx.storePtr(head, fresh);
    return true;
}

bool
TxHashMap::putIfAbsent(Txn &tx, uint64_t key, uint64_t value)
{
    Node **head = &buckets_[bucketOf(key)];
    Node *n = tx.loadPtr(head);
    while (n != nullptr) {
        if (tx.load(&n->key) == key)
            return false;
        n = tx.loadPtr(&n->next);
    }
    Node *fresh = tx.allocObject<Node>();
    tx.store(&fresh->key, key);
    tx.store(&fresh->value, value);
    tx.storePtr(&fresh->next, tx.loadPtr(head));
    tx.storePtr(head, fresh);
    return true;
}

bool
TxHashMap::remove(Txn &tx, uint64_t key)
{
    Node **head = &buckets_[bucketOf(key)];
    Node *prev = nullptr;
    Node *n = tx.loadPtr(head);
    while (n != nullptr) {
        Node *next = tx.loadPtr(&n->next);
        if (tx.load(&n->key) == key) {
            if (prev == nullptr)
                tx.storePtr(head, next);
            else
                tx.storePtr(&prev->next, next);
            tx.freeObject(n);
            return true;
        }
        prev = n;
        n = next;
    }
    return false;
}

uint64_t
TxHashMap::addTo(Txn &tx, uint64_t key, uint64_t delta, bool *found)
{
    Node **head = &buckets_[bucketOf(key)];
    Node *n = tx.loadPtr(head);
    while (n != nullptr) {
        if (tx.load(&n->key) == key) {
            uint64_t v = tx.load(&n->value) + delta;
            tx.store(&n->value, v);
            if (found != nullptr)
                *found = true;
            return v;
        }
        n = tx.loadPtr(&n->next);
    }
    if (found != nullptr)
        *found = false;
    Node *fresh = tx.allocObject<Node>();
    tx.store(&fresh->key, key);
    tx.store(&fresh->value, delta);
    tx.storePtr(&fresh->next, tx.loadPtr(head));
    tx.storePtr(head, fresh);
    return delta;
}

uint64_t
TxHashMap::sizeUnsync() const
{
    uint64_t count = 0;
    for (size_t b = 0; b < bucketCount_; ++b) {
        for (Node *n = buckets_[b]; n != nullptr; n = n->next)
            ++count;
    }
    return count;
}

void
TxHashMap::clearUnsync(ThreadMem &mem)
{
    for (size_t b = 0; b < bucketCount_; ++b) {
        Node *n = buckets_[b];
        buckets_[b] = nullptr;
        while (n != nullptr) {
            Node *next = n->next;
            mem.rawFree(n, sizeof(Node));
            n = next;
        }
    }
}

} // namespace rhtm
